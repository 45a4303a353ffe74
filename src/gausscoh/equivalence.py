"""Equivalence of Gaussian states under incoherent operations.

Two coherent states are mutually convertible by incoherent Gaussian
channels iff they are related by an incoherent unitary: a mode permutation
composed with per-mode SO(2) rotations. :func:`decide_equivalence` searches
that group directly and emits the unitary as a verifiable certificate.

After the cheap checks (incoherence, the theorem's hypothesis, the
symplectic spectrum, the mean's quadratic invariant of
:func:`_mean_quadratic`, per-mode labels refined by the mean holonomies of
:func:`_holonomies`), one backtracking search walks the modes of rho in BFS
order over its cross blocks and gives each a target mode and an angle
together. Every 2x2 block splits into a rotation part and a reflection part
(:func:`gausscoh.core.block_parts`), and each part, like each mean, fixes
an angle, a difference or a sum of two angles in closed form, so no angle
is scanned. A placed mode's mean and blocks to the modes placed before it
are checked at once against the acceptance threshold; each complete
assignment is accepted only on its full residual. When the labels leave
every mode one target, :func:`_settle` skips those checks: one walk down
the BFS tree gives every angle, fixing each component's free phase where
the search would, or leaving it where no part moves with it (the exact
gauge of a zero-mean isotropic state), and the full residual decides.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coherence import relative_entropy_coherence
from .core import (
    DEFAULT_TOL_REL,
    GaussianState,
    block_norms,
    block_parts,
    checked_tol,
    is_incoherent_state,
    validate_state,
)
from .errors import NumericError, ShapeError

#: default relative residual tolerance for accepting a certificate
RESIDUAL_TOL_REL = 1e-8
#: coherences within this many bits count as frozen
FROZEN_TOL_BITS = 1e-9


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
        m = self.modes
        # R(angles[i]) in rows 2 perm[i] + (0, 1) and columns 2 i + (0, 1),
        # written through flat offsets in one assignment
        at, values = [], []
        for i, (target, angle) in enumerate(zip(self.perm, self.angles)):
            c, s = math.cos(angle), math.sin(angle)
            corner = 4 * m * target + 2 * i
            at += (corner, corner + 1, corner + 2 * m, corner + 2 * m + 1)
            values += (c, s, -s, c)
        u = np.zeros(4 * m * m)
        u[at] = values
        return u.reshape(2 * m, 2 * m)

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


def check_hypothesis(state: GaussianState) -> HypothesisViolated | None:
    """Check the structural hypothesis of the equivalence theorems.

    Multimode: every mode must have at least one nonzero off-diagonal
    covariance block. One mode: the state must be coherent (nonzero mean or
    anisotropic covariance). "Nonzero" means above the state's
    :func:`gausscoh.core.default_tol`. Returns the first violation, or None.
    """
    if state.modes > 1:
        return _hypothesis(state)
    if is_incoherent_state(state) is None:
        return None
    return HypothesisViolated(
        mode=0, reason="one-mode state is incoherent (d = 0 and V is isotropic)"
    )


def _hypothesis(state: GaussianState) -> HypothesisViolated | None:
    """The first mode of a multimode state with no cross block above tolerance.
    A ``state.cross_bound`` above it shows a block; only when some mode is
    left does the exact :func:`gausscoh.core.block_norms` table decide."""
    t = DEFAULT_TOL_REL * state.scale
    if state.cross_bound.min() > t:
        return None
    norms = block_norms(state.cov)
    np.fill_diagonal(norms, 0.0)
    lonely = norms.max(axis=1) <= t
    i = int(lonely.argmax())
    if lonely[i]:
        return HypothesisViolated(
            mode=i, reason=f"mode {i} has no nonzero off-diagonal block"
        )
    return None


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def _residual(rho: GaussianState, sigma: GaussianState, unitary: IncoherentUnitary) -> float:
    u = unitary.matrix()
    return max(
        float(np.linalg.norm(u @ rho.cov @ u.T - sigma.cov)),
        float(np.linalg.norm(u @ rho.mean - sigma.mean)),
    )


def _labels(p, abs_p, abs_q, d) -> np.ndarray:
    """Per-mode labels that no incoherent unitary changes, one row per mode.

    The local block's (p, q), |d_i|, and the sorted p and the sorted q of the
    mode's cross blocks (zero blocks included, so their count is matched);
    ``abs_p`` and ``abs_q`` are |P| and |Q|.
    """
    cross = 1.0 - np.eye(d.shape[-1])
    return np.concatenate(
        [
            p.diagonal(axis1=-2, axis2=-1).real[..., None],
            abs_q.diagonal(axis1=-2, axis2=-1)[..., None],
            np.abs(d)[..., None],
            np.sort(abs_p * cross, axis=-1),
            np.sort(abs_q * cross, axis=-1),
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


def _mean_quadratic(state: GaussianState) -> float:
    """x^t V x for the state's mean x, the sum over modes of x_i^t (V x)_i.

    Every incoherent unitary U is orthogonal, so (U x)^t (U V U^t)(U x) =
    x^t V x, while the per-mode terms move with the permutation.
    """
    return float(state.cov.dot(state.mean).dot(state.mean))


def _bands(rho: GaussianState, accept: float) -> tuple[float, float]:
    """The label band, at least ``accept``, and the holonomy band it implies.

    Moving V and d by r moves no label by more than r, so a unitary within
    ``accept`` stays inside the label band. The holonomy band is three times
    how far a holonomy, or :func:`_mean_quadratic`, moves when V and d move
    by the label band: with N = max(1, ||V||_F) and D = max(1, ||d||), x^t V x
    moves by at most r (2 N D + N r + (D + r)^2).
    """
    norm_v = rho.scale
    norm_d = max(1.0, float(np.linalg.norm(rho.mean)))
    band = max(accept, 1e-6 * norm_v)
    return band, 3.0 * band * (norm_d + band) * (2.0 * norm_v + norm_d + band)


def _bfs_order(strong: list):
    """Modes in BFS order over ``strong`` edges, and each mode's BFS parent."""
    m = len(strong)
    order, parent = [], {}
    for root in range(m):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for i in queue:
            if len(parent) == m:
                # every mode has a parent: the rest of the queue is the order
                break
            for j, edge in enumerate(strong[i]):
                if edge and j not in parent:
                    parent[j] = i
                    queue.append(j)
        order += queue
    return order, parent


def _phase(z: complex) -> complex:
    r = abs(z)
    return z / r if r > 0.0 else 1.0


#: a term (x0, power, y) of size zero, standing for "no part on w"
_NO_PART = (0.0, 0, 0.0)


def _size(term) -> float:
    return abs(term[0])


def _top(terms):
    """The largest of ``terms`` with a power of w, the first of equal sizes."""
    return max((term for term in terms if term[1]), key=_size, default=_NO_PART)


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


def _tree_phase(parts, perm, u, sgn, i, j, k) -> tuple[complex, int]:
    """Mode j's phase from its tree edge to its placed BFS parent i, or its mean.

    The edge's larger part decides: its rotation part gives u_j = u_i times a
    phase, its reflection part u_j = conj(u_i) times a phase. The second value,
    +-1, is the sign of u_j's power of a free w relative to u_i's. Once w is
    fixed (u_i has no power of w), a mean larger than both parts decides
    instead: the edge's angle error grows with the path to the root, and a
    large mean turns an error into a large gap.
    """
    (p_r, p_s), (q_r, q_s), (d_r, d_s) = parts
    if not sgn[i] and abs(d_r[j]) > max(abs(p_r[i][j]), abs(q_r[i][j])):
        return _phase(d_r[j] * d_s[k].conjugate()), 1
    if abs(p_r[i][j]) >= abs(q_r[i][j]):
        return u[i] * _phase(p_r[i][j] * p_s[perm[i]][k].conjugate()), 1
    return u[i].conjugate() * _phase(q_s[perm[i]][k] * q_r[i][j].conjugate()), -1


def _terms(parts, perm, u, sgn, done, j, k) -> list:
    """Mode j's mean, local block parts and cross parts to the modes ``done``,
    with j sent to k, each as (x0, power of w, target)."""
    (p_r, p_s), (q_r, q_s), (d_r, d_s) = parts
    uj, sj = u[j], sgn[j]
    terms = [
        (d_r[j] * uj.conjugate(), -sj, d_s[k]),
        (p_r[j][j], 0, p_s[k][k]),
        (q_r[j][j] * uj * uj, 2 * sj, q_s[k][k]),
    ]
    for h in done:
        x_h, s_h, k_h = u[h], sgn[h], perm[h]
        terms.append((p_r[h][j] * x_h * uj.conjugate(), s_h - sj, p_s[k_h][k]))
        terms.append((q_r[h][j] * x_h * uj, s_h + sj, q_s[k_h][k]))
    return terms


def _fits(terms, w, accept: float) -> bool:
    """Whether :func:`_terms` at w keep within ``accept``: the mean alone, the
    blocks by the share of the residual's Frobenius norm they make up."""
    gaps = [_gap(term, w) for term in terms]
    # a cross block appears twice in V, and ||block||^2 = 2 |P|^2 + 2 |Q|^2
    cov_gap = 2.0 * (gaps[1] ** 2 + gaps[2] ** 2)
    cov_gap += 4.0 * sum(g * g for g in gaps[3:])
    return gaps[0] <= accept and cov_gap <= accept**2


def _leaf(rho, sigma, accept: float, perm, u) -> tuple[float, Equivalent | None]:
    """A complete assignment's residual, and the verdict it gives within ``accept``."""
    certificate = IncoherentUnitary(perm=tuple(perm), angles=tuple(cmath.phase(z) for z in u))
    res = _residual(rho, sigma, certificate)
    if res > accept:
        return res, None
    return res, Equivalent(certificate=certificate, residual=res)


def _exhausted(best: float) -> NotEquivalent:
    return NotEquivalent(
        witness="search exhausted",
        best_residual=None if math.isinf(best) else best,
    )


def _settle(rho, sigma, accept, anchor, parts, perm, order, parent):
    """The verdict of :func:`_search` when the labels pin ``perm``, or None.

    One walk down the BFS tree gives every mode its phase by
    :func:`_tree_phase`, as in the search, and fixes each component's w
    where the search does: at the first mode with a part on w above the
    anchor, to those of its roots that pass that mode's tests; else from the
    component's strongest weak part once it is complete; else not at all, an
    exact gauge. While w is free only nonzero parts are looked at, as a zero
    part fixes nothing. So the leaves are the choices of w, and one residual
    decides each. The search's tests on the way to a leaf bound its residual
    from below, so only a failing leaf needs them, to count towards
    ``best_residual`` only if the search reaches it. None when more than one
    component keeps two values of w.
    """
    m = len(perm)
    (p_r, _), (q_r, _), (d_r, d_s) = parts

    def walk(second: bool, full: bool):
        """Every mode's phase, in the search's arithmetic, and how many
        components kept two values of w, with the second value taken when
        ``second``. The phases are None once a mode fails the search's test
        on its mean, or with ``full`` any of its tests, or a component's w
        keeps no value; the walk ends at the second component with two."""
        u, sgn, weak, forks = [1.0] * m, [0] * m, _NO_PART, 0
        for pos, j in enumerate(order):
            i, k = parent[j], perm[j]
            if i is None:
                sgn = [0] * m
                u[j], sgn[j] = 1.0, 1
            else:
                u[j], flip = _tree_phase(parts, perm, u, sgn, i, j, k)
                sgn[j] = flip * sgn[i]
            ws = [None]
            if sgn[j]:
                # while w is free, only a nonzero part with a power of w can
                # fix w or be the weak part: a zero part never changes either
                s_j = sgn[j]
                moving = [
                    h for h in order[:pos]
                    if (p_r[h][j] and sgn[h] != s_j) or (q_r[h][j] and sgn[h] != -s_j)
                ]
                top = _NO_PART
                if moving or d_r[j] or q_r[j][j]:
                    top = _top(_terms(parts, perm, u, sgn, moving, j, k))
                if _size(top) > anchor:
                    ws = _roots(top)
                elif _size(top) > _size(weak):
                    weak = top
            elif not full and abs(d_r[j] * u[j].conjugate() - d_s[k]) > accept:
                # the mean's test of _fits, in its arithmetic: with w fixed,
                # the mean term of _terms has power 0 and _gap is |x0 - y|
                return None, forks
            if full or ws[0] is not None:
                terms = _terms(parts, perm, u, sgn, order[:pos], j, k)
                ws = [w for w in ws if _fits(terms, w, accept)]
                if not ws:
                    return None, forks
            if ws[0] is None and sgn[j] and _size(weak) > 0.0:
                if pos + 1 == m or parent[order[pos + 1]] is None:
                    # the component ends with w free: its strongest weak part fixes w
                    ws = _roots(weak)
            if ws[0] is not None:
                forks += len(ws) > 1
                if forks > 1:
                    return None, forks
                w = ws[-1] if second else ws[0]
                u, sgn, weak = [z * w**s for z, s in zip(u, sgn)], [0] * m, _NO_PART
        return u, forks

    best = math.inf
    for second in (False, True):
        u, forks = walk(second, False)
        if forks > 1:
            return None
        if u is not None:
            res, found = _leaf(rho, sigma, accept, perm, u)
            if found is not None:
                return found
            if walk(second, True)[0] is not None:
                best = min(best, res)
        if not forks:
            break
    return _exhausted(best)


def _search(rho, sigma, accept: float) -> EquivalenceVerdict:
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

    When some mean is nonzero, x^t V x of :func:`_mean_quadratic` comes
    first: two values further apart than the holonomy band of :func:`_bands`
    give "mode fingerprints" before any label is taken, as the per-mode
    terms x_i^t (V x)_i, whose sums differ, cannot be matched. A mode may go
    only to modes with its labels within the label band; when that leaves a
    choice and a mean is nonzero, also with its holonomies within the
    holonomy band. A mode left without one: "mode fingerprints". When every
    mode is left one, :func:`_settle` decides without backtracking wherever
    it can.
    """
    m = rho.modes
    # each mode's mean (x, p) as the complex number x + i p
    d = np.array([rho.mean, sigma.mean]).view(complex)
    displaced = d.any()
    band, h_band = _bands(rho, accept)
    # no incoherent unitary moves x^t V x, and no label is needed to see it
    if displaced and abs(_mean_quadratic(rho) - _mean_quadratic(sigma)) > h_band:
        return NotEquivalent(witness="mode fingerprints")
    p, q = block_parts(np.array([rho.cov, sigma.cov]))
    abs_p, abs_q = np.abs(p), np.abs(q)
    lab_r, lab_s = _labels(p, abs_p, abs_q, d)
    compatible = np.all(np.abs(lab_r[:, None] - lab_s[None, :]) <= band, axis=2)
    pairs = np.count_nonzero(compatible)
    # refine only a choice the moduli leave; with zero means every holonomy is 0
    if pairs > m and displaced:
        hol_r, hol_s = _holonomies(p, q, d)
        compatible &= np.all(np.abs(hol_r[:, None] - hol_s[None, :]) <= h_band, axis=2)
        pairs = np.count_nonzero(compatible)
    if not (compatible.any(axis=0).all() and compatible.any(axis=1).all()):
        return NotEquivalent(witness="mode fingerprints")

    # parts below this scale give unreliable angles for the other blocks
    anchor = max(10.0 * accept, 1e-6)
    strong = (abs_p[0] > anchor) | (abs_q[0] > anchor)
    np.fill_diagonal(strong, False)
    order, parent = _bfs_order(strong.tolist())
    parts = (p.tolist(), q.tolist(), d.tolist())
    if pairs == m:
        # the labels pin the permutation: no choice of target is left to search
        pinned = compatible.argmax(axis=1).tolist()
        settled = _settle(rho, sigma, accept, anchor, parts, pinned, order, parent)
        if settled is not None:
            return settled
    compatible = compatible.tolist()
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
            res, found = _leaf(rho, sigma, accept, perm, u)
            best = min(best, res)
            return found
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
            else:
                u_k[j], flip = _tree_phase(parts, perm, u, sgn, i, j, k)
                s_k[j] = flip * s_k[i]
            terms = _terms(parts, perm, u_k, s_k, done, j, k)
            top = _top(terms)
            if _size(top) > anchor:
                ws, weak_k = _roots(top), _NO_PART
            else:
                ws, weak_k = [None], max(weak, top, key=_size)
            for w in ws:
                if not _fits(terms, w, accept):
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
    return _exhausted(best)


def _prechecks(rho, sigma, tol) -> tuple[EquivalenceVerdict | None, float]:
    """The incoherence verdict both deciders start with, or None, and ``accept``.

    ``accept`` is ``tol``, which :func:`gausscoh.core.checked_tol` checks, or
    ``RESIDUAL_TOL_REL * rho.scale``.
    """
    if rho.modes != sigma.modes:
        raise ShapeError(f"mode mismatch: {rho.modes} vs {sigma.modes}")
    accept = RESIDUAL_TOL_REL * rho.scale if tol is None else checked_tol(tol)
    inc_r, inc_s = (is_incoherent_state(state) is not None for state in (rho, sigma))
    if inc_r and inc_s:
        return AllIncoherent(), accept
    if inc_r != inc_s:
        return NotEquivalent(witness="coherence mismatch"), accept
    return None, accept


def decide_equivalence(
    rho: GaussianState, sigma: GaussianState, tol: float | None = None
) -> EquivalenceVerdict:
    """Decide incoherent Gaussian equivalence of two states.

    Returns :class:`Equivalent` with an incoherent-unitary certificate,
    :class:`NotEquivalent` with a witness, :class:`AllIncoherent` when both
    states are thermal products, or :class:`HypothesisViolated` when a
    coherent multimode state falls outside the theorem's hypothesis. ``tol``
    is the acceptance threshold, and every stage derives its band from it.
    """
    early, accept = _prechecks(rho, sigma, tol)
    if early is not None:
        return early
    if rho.modes > 1:
        # both states are coherent by now, which is all one mode needs
        for violation in map(_hypothesis, (rho, sigma)):
            if violation is not None:
                return violation
    # never below the rounding floor of the eigen-solve behind the spectra
    if np.max(np.abs(rho.spectrum - sigma.spectrum)) > max(accept, DEFAULT_TOL_REL * rho.scale):
        return NotEquivalent(witness="symplectic spectrum")
    return _search(rho, sigma, accept)


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
    the threshold of :func:`_prechecks`. When every box of every permutation
    is pruned, no incoherent unitary comes within it, and the verdict is
    ``NotEquivalent(witness="residual lower bound")``. A level over
    ``_BOX_BUDGET`` boxes, or a box still alive after ``_MAX_LEVELS`` levels,
    ends that permutation without that proof: the verdict is then
    ``NotEquivalent(witness="search exhausted")``. Either way,
    ``best_residual`` is the smallest residual the search evaluated.
    """
    early, accept = _prechecks(rho, sigma, tol)
    m = rho.modes
    if m > 3:
        raise ValueError("brute-force oracle supports at most 3 modes")
    if early is not None:
        return early
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
                unitary = IncoherentUnitary(perm=perm, angles=angles)
                r = _residual(rho, sigma, unitary)
                best = min(best, r)
                if r <= accept:
                    return Equivalent(certificate=unitary, residual=r)
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


def is_frozen(rho: GaussianState, channel) -> FrozenReport:
    """Whether a strictly incoherent channel leaves the state's coherence unchanged.

    Frozen means within ``FROZEN_TOL_BITS``; then input and output are
    equivalent, and the report carries the certificate from
    :func:`decide_equivalence`. A ``NotEquivalent`` verdict there contradicts
    that theorem and raises :class:`NumericError`.
    """
    from .channels import apply_channel, classify_incoherent

    cls = classify_incoherent(channel)
    if not cls.is_strict:
        raise ValueError(f"channel is not strictly incoherent: {cls.verdict}")
    out = apply_channel(channel, rho)
    c_in = relative_entropy_coherence(rho).c_rel_ent
    c_out = relative_entropy_coherence(out).c_rel_ent
    frozen = abs(c_in - c_out) <= FROZEN_TOL_BITS
    verdict = decide_equivalence(rho, out) if frozen else None
    if isinstance(verdict, NotEquivalent):
        raise NumericError(f"coherence {c_in!r} -> {c_out!r} bits frozen, but {verdict}")
    certificate = verdict.certificate if isinstance(verdict, Equivalent) else None
    return FrozenReport(
        frozen=frozen, coherence_in=c_in, coherence_out=c_out, certificate=certificate
    )
