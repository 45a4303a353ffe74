from decimal import Decimal, localcontext

import numpy as np
import pytest

import gausscoh as gc
from gausscoh.coherence import _g
from gausscoh.sampling import RandomStateRecipe, random_state


def grid_minimum(state, refine_rounds=3):
    """Independent oracle: minimize S(rho || thermal(n')) over a log grid."""
    n_center = np.maximum(gc.mean_photon_numbers(state), 1e-6)
    best = np.array(n_center, dtype=float)
    width = 2.0
    value = gc.relative_entropy_to_thermal(state, list(best))
    for _ in range(refine_rounds):
        for i in range(state.modes):
            candidates = best[i] * np.logspace(-width, width, 81)
            for c in candidates:
                trial = best.copy()
                trial[i] = c
                v = gc.relative_entropy_to_thermal(state, list(trial))
                if v < value:
                    value, best = v, trial
        width /= 10.0
    return value


class TestMeanPhotonNumbers:
    def test_vacuum(self):
        assert gc.mean_photon_numbers(gc.vacuum()) == [0.0]

    def test_coherent(self):
        # (2 + 4 - 2) / 4 = 1
        assert gc.mean_photon_numbers(gc.coherent(1.0)) == [pytest.approx(1.0)]

    def test_thermal(self):
        assert gc.mean_photon_numbers(gc.thermal([2.0])) == [pytest.approx(2.0)]

    def test_corrupted_state_raises(self):
        # built directly, past validate_state: V = 0.5 I has n = -1/4
        state = gc.GaussianState(cov=0.5 * np.eye(2), mean=np.zeros(2))
        with pytest.raises(gc.InvariantViolationError, match="negative mean photon"):
            gc.mean_photon_numbers(state)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert gc.von_neumann_entropy(gc.displaced_squeezed(1.0, 0.3j)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_thermal_one_photon(self):
        # g(1) = 2 log2 2 - log2 1 = 2
        assert gc.von_neumann_entropy(gc.thermal([1.0])) == pytest.approx(2.0)

    def test_additive_over_modes(self):
        assert gc.von_neumann_entropy(gc.thermal([1.0, 1.0])) == pytest.approx(4.0)

    @pytest.mark.parametrize("x", [1e6, 1e9, 1e12])
    def test_g_accurate_at_large_occupation(self, x):
        # (x+1) log2(x+1) - x log2 x loses digits to cancellation in floats
        with localcontext() as ctx:
            ctx.prec = 50
            d = Decimal(x)
            exact = ((d + 1) * (d + 1).ln() - d * d.ln()) / Decimal(2).ln()
        assert _g(x) == pytest.approx(float(exact), rel=1e-14)

    def test_g_returns_builtin_float(self):
        # numpy scalars would leak into the CLI's JSON as np.bool_ comparisons
        assert type(_g(np.float64(3.0))) is float


class TestRelativeEntropyCoherence:
    def test_thermal_zero(self):
        report = gc.relative_entropy_coherence(gc.thermal([0.4, 1.7]))
        assert report.c_rel_ent == pytest.approx(0.0, abs=1e-12)

    def test_coherent_two_bits(self):
        report = gc.relative_entropy_coherence(gc.coherent(1.0))
        assert report.c_rel_ent == pytest.approx(2.0, abs=1e-9)
        assert report.entropy == pytest.approx(0.0, abs=1e-9)
        assert report.n_bar == [pytest.approx(1.0)]

    def test_squeezed_vacuum_closed_form(self):
        state = gc.displaced_squeezed(0.0, 0.6)
        n = np.sinh(0.6) ** 2
        expected = (n + 1) * np.log2(n + 1) - n * np.log2(n)
        report = gc.relative_entropy_coherence(state)
        assert report.c_rel_ent == pytest.approx(expected, abs=1e-10)

    def test_reference_is_nearest_thermal(self):
        state = gc.coherent(0.5 + 0.5j)
        report = gc.relative_entropy_coherence(state)
        assert gc.is_incoherent_state(report.reference) == pytest.approx(report.n_bar)

    def test_reports_compare_by_identity(self):
        state = gc.coherent(1.0)
        a, b = gc.relative_entropy_coherence(state), gc.relative_entropy_coherence(state)
        assert a == a and a != b
        assert a in [a] and a not in [b]
        assert len({a, b}) == 2


class TestRelativeEntropyToThermal:
    def test_thermal_self_distance_zero(self):
        state = gc.thermal([0.8])
        assert gc.relative_entropy_to_thermal(state, [0.8]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_coherent_at_minimizer(self):
        assert gc.relative_entropy_to_thermal(gc.coherent(1.0), [1.0]) == pytest.approx(
            2.0
        )

    def test_coherent_off_minimum(self):
        # 2 log2 3 - log2 2, strictly above C_R = 2
        value = gc.relative_entropy_to_thermal(gc.coherent(1.0), [2.0])
        assert value == pytest.approx(2 * np.log2(3) - 1.0)
        assert value > 2.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 1 reference occupations, got 2"):
            gc.relative_entropy_to_thermal(gc.coherent(1.0), [1.0, 1.0])

    def test_rejects_unfaithful_reference(self):
        with pytest.raises(ValueError):
            gc.relative_entropy_to_thermal(gc.coherent(1.0), [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_reference(self, bad):
        # a NaN passes "n <= 0" and an infinite occupation gives inf - inf
        with pytest.raises(gc.NonFiniteError):
            gc.relative_entropy_to_thermal(gc.coherent(1.0), [bad])
        with pytest.raises(gc.NonFiniteError):
            gc.relative_entropy_to_thermal(gc.thermal([0.5, 1.0]), [1.0, bad])


class TestGridOracle:
    @pytest.mark.parametrize("seed", range(15))
    def test_closed_form_is_the_minimum(self, seed):
        modes = 1 + seed % 2
        state = random_state(RandomStateRecipe(modes=modes, seed=seed))
        closed = gc.relative_entropy_coherence(state).c_rel_ent
        assert grid_minimum(state) == pytest.approx(closed, abs=1e-6)


class TestProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_monotone_under_igos(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(RandomStateRecipe(modes=2, seed=seed, hypothesis=False))
        channel = gc.random_igo(2, strict=bool(seed % 2), rng=rng)
        before = gc.relative_entropy_coherence(state).c_rel_ent
        after = gc.relative_entropy_coherence(gc.apply_channel(channel, state)).c_rel_ent
        assert after <= before + 1e-7

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_under_incoherent_unitaries(self, seed):
        from gausscoh.sampling import random_incoherent_unitary

        state = random_state(RandomStateRecipe(modes=3, seed=seed, hypothesis=False))
        unitary = random_incoherent_unitary(3, np.random.default_rng(seed))
        rotated = gc.apply_incoherent_unitary(unitary, state)
        assert gc.relative_entropy_coherence(rotated).c_rel_ent == pytest.approx(
            gc.relative_entropy_coherence(state).c_rel_ent, abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_iff_incoherent(self, seed):
        state = random_state(RandomStateRecipe(modes=2, seed=seed, hypothesis=False))
        c = gc.relative_entropy_coherence(state).c_rel_ent
        incoherent = gc.is_incoherent_state(state) is not None
        assert (c < 1e-9) == incoherent

    @pytest.mark.parametrize("seed", range(8))
    def test_additive_over_tensor_products(self, seed):
        a = random_state(RandomStateRecipe(modes=1, seed=seed, hypothesis=False))
        b = random_state(RandomStateRecipe(modes=2, seed=seed + 50, hypothesis=False))
        cov = np.block(
            [
                [a.cov, np.zeros((2, 4))],
                [np.zeros((4, 2)), b.cov],
            ]
        )
        joint = gc.validate_state(cov, np.concatenate([a.mean, b.mean]))
        assert gc.relative_entropy_coherence(joint).c_rel_ent == pytest.approx(
            gc.relative_entropy_coherence(a).c_rel_ent
            + gc.relative_entropy_coherence(b).c_rel_ent,
            abs=1e-9,
        )
