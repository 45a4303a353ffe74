"""Gaussian channels (T, N, shift) and their incoherent structure.

A channel acts on a state as d -> T d + shift, V -> T V T^t + N. Complete
positivity requires N + i(Omega - T Omega T^t) >= 0. Incoherent channels
have shift = 0, a block-structured T (one scaled-orthogonal 2x2 block per
column pair), N a direct sum of omega_j I_2, and omega_j large enough to
cover the symplectic deficit at each target mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL_REL,
    GaussianState,
    block_norms,
    checked_arrays,
    checked_tol,
    default_tol,
    finite_scale,
    is_incoherent_state,
    isotropic_split,
    rotation,
    symplectic_form,
    validate_state,
)
from .errors import NotCompletelyPositiveError, NotFaithfulError, NumericError, ShapeError


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Immutable validated Gaussian channel (T, N, shift).

    Construct via :func:`validate_channel`. Channels compare and hash by
    identity, like states.
    """

    T: np.ndarray
    N: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        for a in (self.T, self.N, self.shift):
            a.setflags(write=False)

    @property
    def modes(self) -> int:
        return self.T.shape[0] // 2

    def compose(self, inner: "GaussianChannel") -> "GaussianChannel":
        """Channel equal to applying ``inner`` first, then this channel."""
        return validate_channel(
            self.T @ inner.T,
            self.T @ inner.N @ self.T.T + self.N,
            self.T @ inner.shift + self.shift,
        )


@dataclass(frozen=True)
class IgoSpec:
    """Parsed incoherent structure of a channel.

    ``targets[j]`` is the target mode r(j) of source mode j (0-based),
    ``scales[j]`` and ``rotations[j]`` give the 2x2 block t_j O_j, and
    ``noise[j]`` is the weight omega_j of the N = (+) omega_j I_2 block at
    target mode j.
    """

    targets: tuple[int, ...]
    scales: tuple[float, ...]
    rotations: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    noise: tuple[float, ...]
    strict: bool

    @property
    def modes(self) -> int:
        return len(self.targets)

    def rotation(self, j: int) -> np.ndarray:
        return np.array(self.rotations[j])


@dataclass(frozen=True)
class Classification:
    """Outcome of :func:`classify_incoherent`."""

    verdict: str  # "not-incoherent" | "incoherent" | "strictly-incoherent"
    spec: IgoSpec | None = None
    reason: str | None = None

    @property
    def is_incoherent(self) -> bool:
        return self.verdict != "not-incoherent"

    @property
    def is_strict(self) -> bool:
        return self.verdict == "strictly-incoherent"


def validate_channel(
    T: np.ndarray, N: np.ndarray, shift: np.ndarray, tol: float | None = None
) -> GaussianChannel:
    """Check (T, N, shift) with :func:`gausscoh.core.checked_arrays`, which
    symmetrizes N, then against the complete-positivity condition. Whatever
    ``tol`` is, ||[T; N]||_F must be finite: it bounds every entry of T Omega T^t."""
    T, N, shift = checked_arrays({"T": T, "N": N}, {"shift": shift}, tol)
    scale = finite_scale(np.block([[T], [N]]), "[T; N]")
    omega = symplectic_form(T.shape[0] // 2)
    herm = N + 1j * (omega - T @ omega @ T.T)
    min_eig = float(np.min(np.linalg.eigvalsh(herm)))
    cp_tol = DEFAULT_TOL_REL * scale if tol is None else checked_tol(tol)
    if min_eig < -cp_tol:
        raise NotCompletelyPositiveError(
            f"complete positivity violated: min eigenvalue {min_eig:.6g}",
            min_eigenvalue=min_eig,
        )
    return GaussianChannel(T=T, N=N, shift=shift)


def apply_channel(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Apply the channel: d -> T d + shift, V -> T V T^t + N."""
    if channel.modes != state.modes:
        raise ShapeError(
            f"channel has {channel.modes} modes but state has {state.modes}"
        )
    cov = channel.T @ state.cov @ channel.T.T + channel.N
    mean = channel.T @ state.mean + channel.shift
    return validate_state(cov, mean)


def _noise_floors(targets, scales, rotations) -> list:
    """|1 - sum_{k -> i} t_k^2 det O_k| for each mode i: its least noise weight."""
    gains = [0] * len(targets)
    for i, t, o in zip(targets, scales, rotations):
        gains[i] += t**2 * np.linalg.det(o)
    return [abs(1.0 - gain) for gain in gains]


def _scaled_orthogonal(block: np.ndarray, tol: float) -> tuple[float, np.ndarray] | None:
    """Decompose ``block`` as t * O with O orthogonal, or None if it is not."""
    gram = block.T @ block
    t_sq = float(np.trace(gram)) / 2.0
    if np.linalg.norm(gram - t_sq * np.eye(2)) > tol * max(1.0, t_sq):
        return None
    t = float(np.sqrt(t_sq))
    if t == 0.0:
        return None
    return t, block / t


def classify_incoherent(
    channel: GaussianChannel, tol: float | None = None
) -> Classification:
    """Classify a channel as not incoherent, incoherent, or strictly incoherent.

    Parses T's column-pair block structure (exactly one nonzero 2x2 block
    per column pair, each a scaled orthogonal matrix), requires shift = 0
    and N a direct sum of omega_j I_2, and checks the noise lower bounds.
    Strictness additionally requires one block per row pair (the target
    assignment is a bijection).
    """
    m = channel.modes
    t_abs = default_tol(channel.T, tol)
    if np.linalg.norm(channel.shift) > t_abs:
        return Classification("not-incoherent", reason="nonzero shift")

    live_blocks = block_norms(channel.T) > t_abs
    targets: list[int] = []
    scales: list[float] = []
    rotations: list[np.ndarray] = []
    for j in range(m):
        live = np.flatnonzero(live_blocks[:, j])
        if len(live) == 0:
            # vanished input mode: scale 0 with a conventional target
            targets.append(j)
            scales.append(0.0)
            rotations.append(np.eye(2))
            continue
        if len(live) > 1:
            return Classification(
                "not-incoherent",
                reason=f"column pair {j} has {len(live)} nonzero blocks "
                "(exactly one required)",
            )
        i = int(live[0])
        block = channel.T[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
        decomp = _scaled_orthogonal(block, t_abs)
        if decomp is None:
            return Classification(
                "not-incoherent",
                reason=f"block in column pair {j} is not a scaled orthogonal matrix",
            )
        targets.append(i)
        scales.append(decomp[0])
        rotations.append(decomp[1])

    n_tol = default_tol(channel.N, tol)
    # N = (+) omega_j I_2: every block of N minus its isotropic part vanishes
    lam, rest = isotropic_split(channel.N)
    for i in range(m):
        off = [j for j in np.flatnonzero(rest[i] > n_tol) if j != i]
        if off:
            return Classification(
                "not-incoherent",
                reason=f"N has a nonzero off-diagonal block at ({i}, {off[0]})",
            )
        if rest[i, i] > n_tol:
            return Classification(
                "not-incoherent",
                reason=f"N block at mode {i} is not a multiple of the identity",
            )
    noise = [float(w) for w in lam]

    bound_tol = max(t_abs, n_tol)
    for i, floor in enumerate(_noise_floors(targets, scales, rotations)):
        if noise[i] < floor - bound_tol:
            return Classification(
                "not-incoherent",
                reason=f"noise weight {noise[i]:.6g} at mode {i} is below the "
                f"required bound {floor:.6g}",
            )

    strict = sorted(targets) == list(range(m))
    spec = IgoSpec(
        targets=tuple(targets),
        scales=tuple(scales),
        rotations=tuple(tuple(map(tuple, o)) for o in rotations),
        noise=tuple(noise),
        strict=strict,
    )
    return Classification("strictly-incoherent" if strict else "incoherent", spec=spec)


def igo_channel(spec: IgoSpec) -> GaussianChannel:
    """Assemble the Gaussian channel described by an :class:`IgoSpec`."""
    m = spec.modes
    T = np.zeros((2 * m, 2 * m))
    for j in range(m):
        r = spec.targets[j]
        T[2 * r : 2 * r + 2, 2 * j : 2 * j + 2] = spec.scales[j] * spec.rotation(j)
    N = np.kron(np.diag(spec.noise), np.eye(2))
    return validate_channel(T, N, np.zeros(2 * m))


def rotation_channel(theta: float) -> GaussianChannel:
    """One-mode phase rotation channel (T = R(theta), N = 0)."""
    return validate_channel(rotation(theta), np.zeros((2, 2)), np.zeros(2))


def random_igo(
    m: int, strict: bool, rng: np.random.Generator, unitary: bool = False
) -> GaussianChannel:
    """Sample a random (strictly) incoherent channel.

    Targets form a bijection when ``strict``; scales are uniform in
    [0, 1.2]; blocks are random O(2) elements (SO(2) when ``unitary``);
    noise weights sit at their lower bound plus non-negative jitter
    (exactly at the bound, i.e. zero for scale 1, when ``unitary``).
    """
    if m < 1:
        raise ValueError(f"mode count must be positive, got {m}")
    if unitary:
        strict = True
    if strict:
        targets = list(rng.permutation(m))
    else:
        targets = list(rng.integers(0, m, size=m))
    scales = np.ones(m) if unitary else rng.uniform(0.0, 1.2, size=m)
    rotations = []
    for _ in range(m):
        o = rotation(rng.uniform(0.0, 2.0 * np.pi))
        if not unitary and rng.random() < 0.5:
            o = o @ np.diag([1.0, -1.0])
        rotations.append(o)
    noise = [
        lower if unitary else lower + rng.uniform(0.0, 0.5)
        for lower in _noise_floors(targets, scales, rotations)
    ]
    spec = IgoSpec(
        targets=tuple(int(t) for t in targets),
        scales=tuple(float(t) for t in scales),
        rotations=tuple(tuple(map(tuple, o)) for o in rotations),
        noise=tuple(noise),
        strict=strict,
    )
    return igo_channel(spec)


def petz_recovery(channel: GaussianChannel, reference: GaussianState) -> GaussianChannel:
    """Petz recovery channel of an incoherent channel for a thermal reference.

    For a faithful thermal reference with occupations n_i and image
    occupations k_i = n(channel(reference)), the recovery has
    T = diag(sqrt((2n_i+1)^2 - 1)) T_channel^t diag(1/sqrt((2k_i+1)^2 - 1)),
    N = V_ref - T V_image T^t and zero shift; it maps the image back to the
    reference exactly.
    """
    cls = classify_incoherent(channel)
    if not cls.is_incoherent:
        raise ValueError(f"channel is not incoherent: {cls.reason}")
    n_bars = is_incoherent_state(reference)
    if n_bars is None or any(n <= 0.0 for n in n_bars):
        raise ValueError(
            "reference must be a thermal product with strictly positive occupations"
        )
    image = apply_channel(channel, reference)
    k_bars = is_incoherent_state(image)
    if k_bars is None:  # pragma: no cover - IGOs preserve incoherence
        raise NumericError("image of the thermal reference is not incoherent")
    if any(k <= 1e-12 for k in k_bars):  # a vacuum image mode
        raise NotFaithfulError(
            f"image occupations {k_bars} contain a vacuum mode; the recovery "
            "map is undefined for an unfaithful image"
        )
    scale_ref = np.repeat([np.sqrt((2.0 * n + 1.0) ** 2 - 1.0) for n in n_bars], 2)
    scale_img = np.repeat([np.sqrt((2.0 * k + 1.0) ** 2 - 1.0) for k in k_bars], 2)
    T_rec = (scale_ref[:, None] * channel.T.T) / scale_img[None, :]
    N_rec = reference.cov - T_rec @ image.cov @ T_rec.T
    try:
        recovery = validate_channel(T_rec, N_rec, np.zeros_like(channel.shift))
    except NotCompletelyPositiveError as exc:
        raise NumericError(
            f"recovery channel failed complete positivity: {exc}"
        ) from exc
    # for a strictly incoherent channel the recovery is again incoherent;
    # merging channels (non-injective targets) transpose outside the
    # admissible column structure, so the check is conditional
    if cls.is_strict and not classify_incoherent(recovery).is_incoherent:
        raise NumericError("recovery channel is not incoherent")
    return recovery
