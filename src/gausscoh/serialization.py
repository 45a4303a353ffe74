"""JSON documents for states and channels.

State: {"modes": m, "mean": [2m floats], "cov": [[2m x 2m floats]]}
Channel: {"modes": m, "T": [[...]], "N": [[...]], "shift": [...]}
Files are read and written as UTF-8, whatever the locale.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import GaussianState, validate_state
from .errors import ShapeError

if TYPE_CHECKING:
    from .channels import GaussianChannel


def state_to_dict(state: GaussianState) -> dict:
    return {
        "modes": state.modes,
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }


def state_from_dict(doc: dict, tol: float | None = None) -> GaussianState:
    cov, mean = _read(doc, "state", "cov", "mean")
    return validate_state(cov, mean, tol)


def channel_to_dict(channel: GaussianChannel) -> dict:
    return {
        "modes": channel.modes,
        "T": channel.T.tolist(),
        "N": channel.N.tolist(),
        "shift": channel.shift.tolist(),
    }


def channel_from_dict(doc: dict, tol: float | None = None) -> GaussianChannel:
    from .channels import validate_channel

    T, N, shift = _read(doc, "channel", "T", "N", "shift")
    return validate_channel(T, N, shift, tol)


def _read(doc: dict, kind: str, lead: str, *rest: str) -> list[np.ndarray]:
    """The arrays of a ``kind`` document, ``lead`` first; :class:`ShapeError`
    unless it is an object, every entry a float, ``modes`` an integer (not
    ``true`` or ``1.0``) and ``lead`` of shape (2 modes, 2 modes)."""
    try:
        modes = doc["modes"]
        arrays = [np.asarray(doc[key], dtype=float) for key in (lead, *rest)]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"malformed {kind} document: {exc}") from exc
    if isinstance(modes, bool) or not isinstance(modes, numbers.Integral):
        raise ShapeError(f"malformed {kind} document: modes must be an integer, got {modes!r}")
    if arrays[0].shape != (2 * modes, 2 * modes):
        raise ShapeError(
            f"{kind} document declares {modes} modes but {lead} has shape "
            f"{arrays[0].shape}"
        )
    return arrays


def load_state(path: str | Path, tol: float | None = None) -> GaussianState:
    return state_from_dict(json.loads(Path(path).read_text(encoding="utf-8")), tol)


def load_channel(path: str | Path, tol: float | None = None) -> GaussianChannel:
    return channel_from_dict(json.loads(Path(path).read_text(encoding="utf-8")), tol)


def save_state(state: GaussianState, path: str | Path) -> None:
    Path(path).write_text(dumps(state_to_dict(state)) + "\n", encoding="utf-8")


def save_channel(channel: GaussianChannel, path: str | Path) -> None:
    Path(path).write_text(dumps(channel_to_dict(channel)) + "\n", encoding="utf-8")


def dumps(doc: dict, pretty: bool = False) -> str:
    """Deterministic JSON serialization (fixed key order, repr floats)."""
    if pretty:
        return json.dumps(doc, indent=2)
    return json.dumps(doc, separators=(",", ":"))
