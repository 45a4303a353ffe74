"""Equivalence of Gaussian states under incoherent operations.

Two coherent states are mutually convertible by incoherent Gaussian
channels iff they are related by an incoherent unitary: a mode permutation
composed with per-mode SO(2) rotations. :func:`decide_equivalence` searches
that group directly and emits the unitary as a verifiable certificate.

After the cheap checks (incoherence, the theorem's hypothesis, the
symplectic spectrum, per-mode labels refined by the mean holonomies of
:func:`_holonomies`), one backtracking search walks the modes of rho in BFS
order over its cross blocks and gives each a target mode and an angle
together. Every 2x2 block splits into a rotation part and a reflection part
(:func:`gausscoh.core.block_parts`), and each part, like each mean, fixes
an angle, a difference or a sum of two angles in closed form, so no angle
is scanned. A placed mode's mean and blocks to the modes placed before it
are checked at once against the acceptance threshold; each complete
assignment is accepted only on its full residual.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coherence import relative_entropy_coherence
from .core import (
    GaussianState,
    block_norms,
    block_parts,
    default_tol,
    is_incoherent_state,
    rotation,
    validate_state,
)
from .errors import ShapeError

#: default relative residual tolerance for accepting a certificate
RESIDUAL_TOL_REL = 1e-8


@dataclass(frozen=True)
class IncoherentUnitary:
    """Mode permutation plus per-mode rotation angles.

    ``perm[i]`` is the target slot of source mode i (0-based); the matrix
    carries R(angles[i]) in the rows of slot perm[i] and columns of mode i.
    All blocks have determinant +1, so the matrix is orthogonal symplectic.
    """

    perm: tuple[int, ...]
    angles: tuple[float, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"perm {self.perm} is not a permutation")
        if len(self.angles) != len(self.perm):
            raise ValueError("need one angle per mode")

    @property
    def modes(self) -> int:
        return len(self.perm)

    def matrix(self) -> np.ndarray:
        u = np.zeros((2 * self.modes, 2 * self.modes))
        for i, (target, angle) in enumerate(zip(self.perm, self.angles)):
            u[2 * target : 2 * target + 2, 2 * i : 2 * i + 2] = rotation(angle)
        return u

    def inverse(self) -> "IncoherentUnitary":
        perm_inv = [0] * self.modes
        angles_inv = [0.0] * self.modes
        for i, target in enumerate(self.perm):
            perm_inv[target] = i
            angles_inv[target] = -self.angles[i]
        return IncoherentUnitary(perm=tuple(perm_inv), angles=tuple(angles_inv))


class EquivalenceVerdict:
    """Base class for the outcomes of the equivalence decision."""


@dataclass(frozen=True)
class Equivalent(EquivalenceVerdict):
    certificate: IncoherentUnitary
    residual: float


@dataclass(frozen=True)
class NotEquivalent(EquivalenceVerdict):
    witness: str
    best_residual: float | None = None


@dataclass(frozen=True)
class AllIncoherent(EquivalenceVerdict):
    """Both states are thermal products; they form one conversion class."""


@dataclass(frozen=True)
class HypothesisViolated(EquivalenceVerdict):
    mode: int
    reason: str


def apply_incoherent_unitary(
    unitary: IncoherentUnitary, state: GaussianState
) -> GaussianState:
    """Conjugate a state by an incoherent unitary: (V, d) -> (UVU^t, Ud)."""
    if unitary.modes != state.modes:
        raise ShapeError(
            f"unitary has {unitary.modes} modes but state has {state.modes}"
        )
    u = unitary.matrix()
    return validate_state(u @ state.cov @ u.T, u @ state.mean)


def check_hypothesis(
    state: GaussianState, tol: float | None = None
) -> HypothesisViolated | None:
    """Check the structural hypothesis of the equivalence theorems.

    Multimode: every mode must have at least one nonzero off-diagonal
    covariance block. One mode: the state must be coherent (nonzero mean or
    anisotropic covariance). Returns the first violation, or None.
    """
    if state.modes == 1:
        if is_incoherent_state(state, tol) is None:
            return None
        return HypothesisViolated(
            mode=0, reason="one-mode state is incoherent (d = 0 and V is isotropic)"
        )
    t = default_tol(state.cov, tol)
    norms = block_norms(state.cov)
    np.fill_diagonal(norms, 0.0)
    lonely = np.flatnonzero(norms.max(axis=1) <= t)
    if lonely.size:
        i = int(lonely[0])
        return HypothesisViolated(
            mode=i, reason=f"mode {i} has no nonzero off-diagonal block"
        )
    return None


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def _residual(
    rho: GaussianState, sigma: GaussianState, perm, angles
) -> float:
    u = IncoherentUnitary(perm=tuple(perm), angles=tuple(angles)).matrix()
    return max(
        float(np.linalg.norm(u @ rho.cov @ u.T - sigma.cov)),
        float(np.linalg.norm(u @ rho.mean - sigma.mean)),
    )


def _labels(p, q, d) -> np.ndarray:
    """Per-mode labels that no incoherent unitary changes, one row per mode.

    The local block's (p, q), |d_i|, and the sorted p and the sorted q of the
    mode's cross blocks (zero blocks included, so their count is matched).
    """
    cross = 1.0 - np.eye(d.shape[-1])
    return np.concatenate(
        [
            p.diagonal(axis1=-2, axis2=-1).real[..., None],
            np.abs(q.diagonal(axis1=-2, axis2=-1))[..., None],
            np.abs(d)[..., None],
            np.sort(np.abs(p) * cross, axis=-1),
            np.sort(np.abs(q) * cross, axis=-1),
        ],
        axis=-1,
    )


def _holonomies(p, q, d) -> np.ndarray:
    """Per-mode sums in which every rotation phase cancels, one row per mode.

    By :func:`block_parts`, rotations take P_ij to u_i conj(u_j) P_ij, Q_ij to
    u_i u_j Q_ij and d_i to conj(u_i) d_i, so d_i (P conj(d))_i, d_i (Q d)_i
    and d_i^2 Q_ii keep their values and a permutation only moves the rows.
    The six columns are their real and imaginary parts.
    """
    pd = (p @ d.conj()[..., None])[..., 0]
    qd = (q @ d[..., None])[..., 0]
    h = d[..., None] * np.stack([pd, qd, d * q.diagonal(axis1=-2, axis2=-1)], axis=-1)
    return np.concatenate([h.real, h.imag], axis=-1)


def _holonomy_band(band: float, norm_v: float, norm_d: float) -> float:
    """Three times how far a holonomy moves when V and d move by ``band``."""
    return 3.0 * band * (norm_d + band) * (2.0 * norm_v + norm_d + band)


def _bfs_order(strong: list):
    """Modes in BFS order over ``strong`` edges, and each mode's BFS parent."""
    order, parent = [], {}
    for root in range(len(strong)):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for i in queue:
            order.append(i)
            for j, edge in enumerate(strong[i]):
                if edge and j not in parent:
                    parent[j] = i
                    queue.append(j)
    return order, parent


def _phase(z: complex) -> complex:
    r = abs(z)
    return z / r if r > 0.0 else 1.0


#: a term (x0, power, y) of size zero, standing for "no part on w"
_NO_PART = (0.0, 0, 0.0)


def _size(term) -> float:
    return abs(term[0])


def _roots(term) -> list:
    """The values of w with x0 w^power = y, for a term (x0, power, y)."""
    x0, power, y = term
    w = _phase(y * x0.conjugate())
    if power < 0:
        w = w.conjugate()
    if abs(power) == 1:
        return [w]
    root = cmath.sqrt(w)
    return [root, -root]


def _gap(term, w) -> float:
    """|x0 w^power - y|; its minimum over all w, ||x0| - |y||, while w is free."""
    x0, power, y = term
    if not power:
        return abs(x0 - y)
    if w is None:
        return abs(abs(x0) - abs(y))
    return abs(x0 * w**power - y)


def _search(rho, sigma, accept: float, tol: float) -> EquivalenceVerdict:
    """Backtracking search for a permutation and angles taking rho to sigma.

    A mode's angle is held as the unit complex u_i = e^{i theta_i}. The
    modes of the component being placed share one undetermined phase w:
    u_i = u0_i w^{s_i} with s_i = +-1 (s_i = 0 once w is known). By
    :func:`block_parts`, each mean and block part of a placed mode then
    reads x0 w^power against its target y in sigma. The first mode with a
    part on w (power != 0) above the anchor scale fixes w, to one or two
    values. A component without one takes w from its strongest weaker part
    once complete, and keeps w = 1 when no part involves w: that is an
    exact gauge freedom.

    A mode may go only to modes with its labels within ``band``; when that
    leaves a choice and a mean is nonzero, also with its holonomies within
    :func:`_holonomy_band`. A mode left without one: "mode fingerprints".
    """
    m = rho.modes
    p, q = block_parts(np.stack([rho.cov, sigma.cov]))
    # each mode's mean (x, p) as the complex number x + i p
    d = np.stack([rho.mean, sigma.mean]).view(complex)
    norm_v = max(1.0, float(np.linalg.norm(rho.cov)))
    band = max(tol, 1e-6 * norm_v)
    lab_r, lab_s = _labels(p, q, d)
    compatible = np.all(np.abs(lab_r[:, None] - lab_s[None, :]) <= band, axis=2)
    # refine only a choice the moduli leave; with zero means every holonomy is 0
    if np.count_nonzero(compatible) > m and d.any():
        hol_r, hol_s = _holonomies(p, q, d)
        norm_d = max(1.0, float(np.linalg.norm(rho.mean)))
        h_band = _holonomy_band(band, norm_v, norm_d)
        compatible &= np.all(np.abs(hol_r[:, None] - hol_s[None, :]) <= h_band, axis=2)
    if not (compatible.any(axis=0).all() and compatible.any(axis=1).all()):
        return NotEquivalent(witness="mode fingerprints")

    # parts below this scale give unreliable angles for the other blocks
    anchor = max(100.0 * tol, 1e-6)
    strong = (np.abs(p[0]) > anchor) | (np.abs(q[0]) > anchor)
    np.fill_diagonal(strong, False)
    order, parent = _bfs_order(strong.tolist())
    compatible = compatible.tolist()
    (p_r, p_s), (q_r, q_s), (d_r, d_s) = p.tolist(), q.tolist(), d.tolist()
    perm = [-1] * m
    used = [False] * m
    best = math.inf

    def place(pos: int, u: list, sgn: list, weak):
        # weak: the strongest part on w seen while w is free, all below anchor
        nonlocal best
        if _size(weak) > 0.0 and (pos == m or parent[order[pos]] is None):
            # the component ends with w free: its strongest weak part fixes w
            for w in _roots(weak):
                u_w = [z * w**s for z, s in zip(u, sgn)]
                found = place(pos, u_w, [0] * m, _NO_PART)
                if found is not None:
                    return found
            return None
        if pos == m:
            angles = [cmath.phase(z) for z in u]
            res = _residual(rho, sigma, perm, angles)
            best = min(best, res)
            if res > accept:
                return None
            return Equivalent(
                certificate=IncoherentUnitary(perm=tuple(perm), angles=tuple(angles)),
                residual=res,
            )
        j = order[pos]
        i = parent[j]
        done = order[:pos]
        for k in range(m):
            if used[k] or not compatible[j][k]:
                continue
            u_k, s_k = list(u), list(sgn)
            if i is None:
                # a new component: the previous one's w is fixed by now
                s_k = [0] * m
                u_k[j], s_k[j] = 1.0, 1
            elif abs(p_r[i][j]) >= abs(q_r[i][j]):
                u_k[j] = u[i] * _phase(p_r[i][j] * p_s[perm[i]][k].conjugate())
                s_k[j] = s_k[i]
            else:
                u_k[j] = u[i].conjugate() * _phase(
                    q_s[perm[i]][k] * q_r[i][j].conjugate()
                )
                s_k[j] = -s_k[i]
            uj, sj = u_k[j], s_k[j]
            # mode j's mean, local block parts and cross parts to the placed
            # modes, each as (x0, power of w, target)
            terms = [
                (d_r[j] * uj.conjugate(), -sj, d_s[k]),
                (p_r[j][j], 0, p_s[k][k]),
                (q_r[j][j] * uj * uj, 2 * sj, q_s[k][k]),
            ]
            for h in done:
                x_h, s_h, k_h = u_k[h], s_k[h], perm[h]
                terms.append((p_r[h][j] * x_h * uj.conjugate(), s_h - sj, p_s[k_h][k]))
                terms.append((q_r[h][j] * x_h * uj, s_h + sj, q_s[k_h][k]))
            top = max((term for term in terms if term[1]), key=_size, default=_NO_PART)
            if _size(top) > anchor:
                ws, weak_k = _roots(top), _NO_PART
            else:
                ws, weak_k = [None], max(weak, top, key=_size)
            for w in ws:
                gaps = [_gap(term, w) for term in terms]
                # a cross block appears twice in V, and ||block||^2 = 2 |P|^2 + 2 |Q|^2
                cov_gap = 2.0 * (gaps[1] ** 2 + gaps[2] ** 2)
                cov_gap += 4.0 * sum(g * g for g in gaps[3:])
                if gaps[0] > accept or cov_gap > accept**2:
                    continue
                perm[j], used[k] = k, True
                if w is None:
                    found = place(pos + 1, u_k, s_k, weak_k)
                else:
                    u_w = [z * w**s for z, s in zip(u_k, s_k)]
                    found = place(pos + 1, u_w, [0] * m, _NO_PART)
                used[k] = False
                if found is not None:
                    return found
        return None

    found = place(0, [1.0] * m, [0] * m, _NO_PART)
    # place holds itself through its closure: drop it, so that this search's
    # lists are freed now and not by a later full garbage collection
    del place
    if found is not None:
        return found
    return NotEquivalent(
        witness="search exhausted",
        best_residual=None if math.isinf(best) else best,
    )


def decide_equivalence(
    rho: GaussianState, sigma: GaussianState, tol: float | None = None
) -> EquivalenceVerdict:
    """Decide incoherent Gaussian equivalence of two states.

    Returns :class:`Equivalent` with an incoherent-unitary certificate,
    :class:`NotEquivalent` with a witness, :class:`AllIncoherent` when both
    states are thermal products, or :class:`HypothesisViolated` when a
    coherent multimode state falls outside the theorem's hypothesis.
    """
    if rho.modes != sigma.modes:
        raise ShapeError(f"mode mismatch: {rho.modes} vs {sigma.modes}")
    inc_r = is_incoherent_state(rho)
    inc_s = is_incoherent_state(sigma)
    if inc_r is not None and inc_s is not None:
        return AllIncoherent()
    if (inc_r is None) != (inc_s is None):
        return NotEquivalent(witness="coherence mismatch")
    if rho.modes >= 2:
        for state in (rho, sigma):
            violation = check_hypothesis(state)
            if violation is not None:
                return violation

    accept = RESIDUAL_TOL_REL * max(1.0, float(np.linalg.norm(rho.cov)))
    if tol is not None:
        accept = tol
    t = default_tol(rho.cov)

    if np.max(np.abs(rho.spectrum - sigma.spectrum)) > max(accept, t):
        return NotEquivalent(witness="symplectic spectrum")
    return _search(rho, sigma, accept, t)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

#: most boxes one bisection level of the oracle may hold
_BOX_BUDGET = 200_000
#: bisection levels; pi / 2^52 is below the spacing of doubles near 2 pi
_MAX_LEVELS = 52
#: box centres evaluated in one numpy pass, which bounds the memory of a level
_CHUNK = 4096
#: Gauss-Newton steps of one polish
_POLISH_STEPS = 20
#: d R(theta) / d theta = R(theta) @ _GEN
_GEN = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _rotations(angles: np.ndarray) -> np.ndarray:
    """blkdiag(R(angles[..., 0]), ..., R(angles[..., m-1])), shape (..., 2m, 2m)."""
    m = angles.shape[-1]
    c, s = np.cos(angles), np.sin(angles)
    r = np.zeros(angles.shape[:-1] + (2 * m, 2 * m))
    for i in range(m):
        r[..., 2 * i, 2 * i] = r[..., 2 * i + 1, 2 * i + 1] = c[..., i]
        r[..., 2 * i, 2 * i + 1] = s[..., i]
        r[..., 2 * i + 1, 2 * i] = -s[..., i]
    return r


def _targets(sigma: GaussianState, perm) -> tuple[np.ndarray, np.ndarray]:
    """sigma's covariance and mean with slot perm[i] moved to mode i.

    Then the residual of (perm, theta) is the larger of
    ||R V R^t - W||_F and ||R d - e|| with R = blkdiag(R(theta_i)).
    """
    idx = np.ravel([[2 * t, 2 * t + 1] for t in perm])
    return sigma.cov[np.ix_(idx, idx)], sigma.mean[idx]


def _box_bounds(
    rho: GaussianState, w, e, centres: np.ndarray, half_width: float
) -> tuple[np.ndarray, np.ndarray]:
    """The residual at each box centre, and a lower bound on it over the box.

    A box holds every theta within ``half_width`` of its centre c in each
    angle, so ||R(theta) - R(c)||_2 <= eps = 2 sin(half_width / 2). The
    isotropic part Lambda = blkdiag(lambda_i I) of rho's local blocks commutes
    with every R, hence over the box
    ||R V R^t - W|| >= ||R_c V R_c^t - W|| - 2 eps ||V - Lambda|| and
    ||R d - e|| >= ||R_c d - e|| - eps ||d||.
    """
    r_cov, r_mean = [], []
    for start in range(0, len(centres), _CHUNK):
        r = _rotations(centres[start : start + _CHUNK])
        diff = r @ rho.cov @ r.transpose(0, 2, 1) - w
        r_cov.append(np.sqrt(np.einsum("nij,nij->n", diff, diff)))
        r_mean.append(np.linalg.norm(r @ rho.mean - e, axis=1))
    r_cov, r_mean = np.concatenate(r_cov), np.concatenate(r_mean)
    lam = np.repeat(rho.cov.diagonal().reshape(-1, 2).mean(axis=1), 2)
    eps = 2.0 * math.sin(min(half_width, math.pi) / 2.0)
    bound = np.maximum(
        r_cov - 2.0 * eps * np.linalg.norm(rho.cov - np.diag(lam)),
        r_mean - eps * np.linalg.norm(rho.mean),
    )
    return np.maximum(r_cov, r_mean), bound


def _polish(rho: GaussianState, w, e, angles: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the stacked residual [R V R^t - W; R d - e].

    Each step is the minimum-norm least-squares step on the analytic
    Jacobian, so a gauge direction, along which the residual does not move,
    takes no step. Returns the iterate with the smallest squared residual.
    """
    m = len(angles)
    best, best_sq = angles, math.inf
    for _ in range(_POLISH_STEPS):
        r = _rotations(angles)
        vec = np.concatenate([(r @ rho.cov @ r.T - w).ravel(), r @ rho.mean - e])
        sq = float(vec @ vec)
        if sq >= best_sq:
            break
        best, best_sq = angles, sq
        jac = np.empty((vec.size, m))
        for i in range(m):
            # d/d theta_i of R V R^t and R d, with G_i = _GEN in block i
            gv = np.zeros_like(rho.cov)
            gv[2 * i : 2 * i + 2] = _GEN @ rho.cov[2 * i : 2 * i + 2]
            gd = np.zeros_like(rho.mean)
            gd[2 * i : 2 * i + 2] = _GEN @ rho.mean[2 * i : 2 * i + 2]
            jac[:, i] = np.concatenate([(r @ (gv + gv.T) @ r.T).ravel(), r @ gd])
        angles = angles - np.linalg.lstsq(jac, vec, rcond=None)[0]
    return best


def brute_force_equivalence(
    rho: GaussianState, sigma: GaussianState, tol: float | None = None
) -> EquivalenceVerdict:
    """Independent oracle for :func:`decide_equivalence`, for at most 3 modes.

    For each mode permutation, the angle torus [0, 2 pi)^m is bisected level
    by level: every surviving box splits into 2^m children, whose centres
    are evaluated in one numpy pass. A box is pruned when a lower bound on
    the residual over it (:func:`_box_bounds`) exceeds the acceptance
    threshold. At each level a Gauss-Newton polish starts from the best two
    surviving centres.

    Returns :class:`Equivalent` once a polished point's residual is at most
    ``1e-8 * max(1, ||V||_F)`` (or ``tol``). When every box of every
    permutation is pruned, no incoherent unitary comes within the threshold,
    and the verdict is ``NotEquivalent(witness="residual lower bound")``. A
    level over ``_BOX_BUDGET`` boxes, or a box still alive after
    ``_MAX_LEVELS`` levels, ends that permutation without that proof: the
    verdict is then ``NotEquivalent(witness="search exhausted")``. Either way,
    ``best_residual`` is the smallest residual the search evaluated.
    """
    if rho.modes != sigma.modes:
        raise ShapeError(f"mode mismatch: {rho.modes} vs {sigma.modes}")
    m = rho.modes
    if m > 3:
        raise ValueError("brute-force oracle supports at most 3 modes")
    inc_r = is_incoherent_state(rho)
    inc_s = is_incoherent_state(sigma)
    if inc_r is not None and inc_s is not None:
        return AllIncoherent()
    if (inc_r is None) != (inc_s is None):
        return NotEquivalent(witness="coherence mismatch")

    accept = RESIDUAL_TOL_REL * max(1.0, float(np.linalg.norm(rho.cov)))
    if tol is not None:
        accept = tol
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    best = math.inf
    exhausted = False
    for perm in itertools.permutations(range(m)):
        w, e = _targets(sigma, perm)
        centres, half_width = np.full((1, m), math.pi), math.pi
        for _ in range(_MAX_LEVELS):
            res, bound = _box_bounds(rho, w, e, centres, half_width)
            best = min(best, float(res.min()))
            alive = bound <= accept
            centres, res = centres[alive], res[alive]
            if not len(centres):
                break
            for start in centres[np.argsort(res)[:2]]:
                angles = tuple(float(a) for a in _polish(rho, w, e, start))
                r = _residual(rho, sigma, perm, angles)
                best = min(best, r)
                if r <= accept:
                    return Equivalent(
                        certificate=IncoherentUnitary(perm=perm, angles=angles),
                        residual=r,
                    )
            if len(centres) * len(signs) > _BOX_BUDGET:
                exhausted = True
                break
            half_width /= 2.0
            centres = (centres[:, None, :] + half_width * signs).reshape(-1, m)
        else:
            exhausted = True
    return NotEquivalent(
        witness="search exhausted" if exhausted else "residual lower bound",
        best_residual=best,
    )


# ---------------------------------------------------------------------------
# frozen coherence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenReport:
    frozen: bool
    coherence_in: float
    coherence_out: float
    certificate: IncoherentUnitary | None = None


def is_frozen(rho: GaussianState, channel, tol: float = 1e-9) -> FrozenReport:
    """Whether a strictly incoherent channel leaves the state's coherence unchanged.

    When frozen, the channel's input and output are incoherent-equivalent
    and the report carries the certificate from :func:`decide_equivalence`.
    """
    from .channels import apply_channel, classify_incoherent

    cls = classify_incoherent(channel)
    if not cls.is_strict:
        raise ValueError(f"channel is not strictly incoherent: {cls.verdict}")
    out = apply_channel(channel, rho)
    c_in = relative_entropy_coherence(rho).c_rel_ent
    c_out = relative_entropy_coherence(out).c_rel_ent
    frozen = abs(c_in - c_out) <= tol
    certificate = None
    if frozen:
        verdict = decide_equivalence(rho, out)
        if isinstance(verdict, Equivalent):
            certificate = verdict.certificate
    return FrozenReport(
        frozen=frozen, coherence_in=c_in, coherence_out=c_out, certificate=certificate
    )
