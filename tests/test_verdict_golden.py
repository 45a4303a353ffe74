"""Verdicts of ``decide_equivalence`` pinned on fixed pairs.

About 200 default-tolerance pairs from fixed seeds: planted pairs, pairs
perturbed by 0.05, 1e-6 and 1e-7, pairs whose first state has one mean
rotated, and isotropic rings with planted or scrambled mean phases, over
m = 1-16, squeezing 0.3-2.5 and mean scale 0.01-300. The golden file holds
each verdict's kind and witness: the certificate's permutation and angles,
the witness string of a negative, the mode of a hypothesis violation. A
second golden file holds the ``best_residual`` of every negative, as its
``repr`` (``None`` when the search reached no complete assignment).
Regenerate both with ``GAUSS_COHERENCE_REGEN=1 pytest -s tests/test_verdict_golden.py``
only when a change means to move a verdict; it prints each label whose
record changed, old -> new.
"""

import json
import math
import os
from pathlib import Path

import numpy as np

import gausscoh as gc
from gausscoh.core import rotation
from gausscoh.sampling import (
    RandomStateRecipe,
    equivalent_pair,
    perturbed_pair,
    random_incoherent_unitary,
)
from test_equivalence import _isotropic_ring, _label_spy, _tensor_spy, _walk_spy

GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"
BEST_RESIDUALS = Path(__file__).parent / "golden" / "best_residuals.json"

SCALES = (0.01, 1.0, 30.0, 300.0)
SQUEEZES = (0.3, 0.8, 1.5, 2.5)
FAMILIES = ("planted", "perturbed-0.05", "perturbed-1e-6", "perturbed-1e-7", "mean-rotated")
# certificate angles are compared modulo 2 pi within this many radians
ANGLE_TOL = 1e-7
# best residuals are compared within this relative tolerance
BEST_RESIDUAL_REL = 1e-6


def _generic(k):
    """Pair k of the generic families, and its label."""
    m = 1 + k % 16
    family = FAMILIES[k % 5]
    scale, squeeze = SCALES[(k // 16) % 4], SQUEEZES[(k // 3) % 4]
    recipe = RandomStateRecipe(modes=m, seed=9000 + k, mean_scale=scale, max_squeeze=squeeze)
    label = f"{family} m={m} r={squeeze} d={scale} k={k}"
    if family.startswith("perturbed"):
        return label, perturbed_pair(recipe, magnitude=float(family.split("-", 1)[1]))
    rho, sigma, planted = equivalent_pair(recipe)
    if family == "mean-rotated":
        i = int(np.argmax(np.linalg.norm(rho.mean.reshape(m, 2), axis=1)))
        mean = rho.mean.copy()
        mean[2 * i : 2 * i + 2] = rotation(1.0) @ mean[2 * i : 2 * i + 2]
        sigma = gc.apply_incoherent_unitary(planted, gc.validate_state(rho.cov, mean))
    return label, (rho, sigma)


def _ring(k):
    """Ring pair k: an isotropic ring, displaced or not, and a planted image.

    Odd k scramble the image's mean phases before the unitary, a negative.
    """
    m = 3 + k % 10
    radius = (0.0, 0.01, 1.0, 30.0)[(k // 10) % 4]
    rng = np.random.default_rng([7000, k])
    cov = _isotropic_ring(m)

    def displaced(phases):
        return gc.validate_state(
            cov, radius * np.ravel(np.column_stack([np.cos(phases), np.sin(phases)]))
        )

    phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
    rho = displaced(phases)
    image = displaced(rng.permutation(phases)) if k % 2 else rho
    sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(m, rng), image)
    kind = "scrambled" if k % 2 else "planted"
    return f"ring-{kind} m={m} radius={radius} k={k}", (rho, sigma)


def _pairs():
    for k in range(160):
        yield _generic(k)
    for k in range(40):
        yield _ring(k)


def _record(verdict) -> dict:
    doc = {"kind": type(verdict).__name__}
    if isinstance(verdict, gc.Equivalent):
        doc["perm"] = list(verdict.certificate.perm)
        doc["angles"] = list(verdict.certificate.angles)
    elif isinstance(verdict, gc.NotEquivalent):
        doc["witness"] = verdict.witness
    elif isinstance(verdict, gc.HypothesisViolated):
        doc["mode"] = verdict.mode
    return doc


def _same(got: dict, want: dict) -> bool:
    if set(got) != set(want) or any(got[k] != want[k] for k in got if k != "angles"):
        return False
    gaps = [
        abs(math.remainder(a - b, 2.0 * math.pi))
        for a, b in zip(got.get("angles", []), want.get("angles", []))
    ]
    return all(gap <= ANGLE_TOL for gap in gaps)


def _regenerate(path: Path, got: dict, same) -> None:
    """Write ``got`` to ``path``, printing each label whose record changed."""
    old = json.loads(path.read_text()) if path.exists() else {}
    for label in [*got, *(label for label in old if label not in got)]:
        before, after = old.get(label), got.get(label)
        if before is None or after is None or not same(after, before):
            print(f"{label}: {before} -> {after}")
    path.write_text(json.dumps(got, indent=1) + "\n")


def test_verdicts_match_golden():
    got = {label: _record(gc.decide_equivalence(*pair)) for label, pair in _pairs()}
    if os.environ.get("GAUSS_COHERENCE_REGEN"):
        _regenerate(GOLDEN, got, _same)
    want = json.loads(GOLDEN.read_text())
    assert list(got) == list(want)
    drifted = [label for label in got if not _same(got[label], want[label])]
    assert not drifted, f"{len(drifted)} verdicts drifted, first {drifted[:5]}"


def _same_best(got: str, want: str) -> bool:
    if "None" in (got, want):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=BEST_RESIDUAL_REL)


def test_best_residuals_match_golden():
    # whether the search reached a complete assignment, and how close it came
    verdicts = ((label, gc.decide_equivalence(*pair)) for label, pair in _pairs())
    got = {
        label: repr(verdict.best_residual)
        for label, verdict in verdicts
        if isinstance(verdict, gc.NotEquivalent)
    }
    if os.environ.get("GAUSS_COHERENCE_REGEN"):
        _regenerate(BEST_RESIDUALS, got, _same_best)
    want = json.loads(BEST_RESIDUALS.read_text())
    assert list(got) == list(want)
    drifted = [label for label in got if not _same_best(got[label], want[label])]
    assert not drifted, f"{len(drifted)} best residuals drifted, first {drifted[:5]}"


def test_exhausted_generic_pairs_compare_only_the_pinned_rows(monkeypatch):
    # every generic pair the search exhausts has its weights pinned: the walks
    # fail, the pinned label rows pass, and no full label tensor is compared
    tensors = _tensor_spy(monkeypatch)
    golden = json.loads(GOLDEN.read_text())
    want = json.loads(BEST_RESIDUALS.read_text())
    exhausted = 0
    for k in range(160):
        label, pair = _generic(k)
        if golden[label].get("witness") != "search exhausted":
            continue
        verdict = gc.decide_equivalence(*pair)
        assert verdict.witness == "search exhausted"
        assert repr(verdict.best_residual) == want[label]
        exhausted += 1
    assert exhausted == 24 and tensors == []


def test_every_pair_takes_one_route_to_the_walk(monkeypatch):
    # whichever stage pins the permutation, a decide builds at most one label
    # table, and its walks are none, one, or a deferred walk that reached a
    # failing leaf and then the checked walk
    tables, walks = _label_spy(monkeypatch), _walk_spy(monkeypatch)
    for label, pair in _pairs():
        tables.clear(), walks.clear()
        verdict = gc.decide_equivalence(*pair)
        v = verdict if isinstance(verdict, gc.Equivalent) else None
        routes = ([], [(False, v)], [(False, None)], [(False, None), (True, v)], [(True, v)])
        assert len(tables) <= 1, label
        assert walks in routes, label
