import numpy as np
import pytest

import gausscoh as gc
from gausscoh import sampling
from gausscoh.sampling import (
    RandomStateRecipe,
    equivalent_pair,
    perturbed_pair,
    random_incoherent_unitary,
    random_state,
    random_symplectic,
    williamson_invariance_check,
)


class TestRandomSymplectic:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_preserves_symplectic_form(self, m):
        s = random_symplectic(m, np.random.default_rng(3))
        omega = gc.symplectic_form(m)
        np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-12)

    def test_deterministic_in_seed(self):
        a = random_symplectic(2, np.random.default_rng(9))
        b = random_symplectic(2, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestRandomState:
    @pytest.mark.parametrize("seed", range(20))
    def test_valid_and_planted_spectrum(self, seed):
        recipe = RandomStateRecipe(modes=3, seed=seed)
        state = random_state(recipe)
        spectrum = gc.williamson_spectrum(state)
        assert np.all(spectrum >= 1.0 - 1e-9)
        assert np.all(spectrum <= 1.0 + sampling.MAX_THERMAL + 1e-9)

    def test_deterministic(self):
        recipe = RandomStateRecipe(modes=2, seed=17)
        a, b = random_state(recipe), random_state(recipe)
        np.testing.assert_array_equal(a.cov, b.cov)
        np.testing.assert_array_equal(a.mean, b.mean)

    @pytest.mark.parametrize("seed", range(10))
    def test_hypothesis_satisfied_by_default(self, seed):
        state = random_state(RandomStateRecipe(modes=3, seed=seed))
        assert gc.check_hypothesis(state) is None

    def test_gives_up_after_64_draws(self, monkeypatch):
        draws = []

        def every_mode_fails(state):
            draws.append(state)
            return 0

        monkeypatch.setattr(sampling, "check_hypothesis", every_mode_fails)
        with pytest.raises(RuntimeError, match="failed to sample a state"):
            random_state(RandomStateRecipe(modes=2, seed=0))
        assert len(draws) == 64


class TestRandomIncoherentUnitary:
    def test_valid_permutation(self):
        u = random_incoherent_unitary(5, np.random.default_rng(0))
        assert sorted(u.perm) == list(range(5))
        assert len(u.angles) == 5


class TestEquivalentPair:
    @pytest.mark.parametrize("seed", range(10))
    def test_certificate_maps_pair(self, seed):
        rho, sigma, unitary = equivalent_pair(RandomStateRecipe(modes=3, seed=seed))
        image = gc.apply_incoherent_unitary(unitary, rho)
        np.testing.assert_allclose(image.cov, sigma.cov, atol=1e-12)
        np.testing.assert_allclose(image.mean, sigma.mean, atol=1e-12)

    def test_deterministic(self):
        recipe = RandomStateRecipe(modes=2, seed=5)
        _, sigma_a, _ = equivalent_pair(recipe)
        _, sigma_b, _ = equivalent_pair(recipe)
        np.testing.assert_array_equal(sigma_a.cov, sigma_b.cov)


class TestPerturbedPair:
    @pytest.mark.parametrize("seed", range(10))
    def test_pair_is_valid_and_differs(self, seed):
        rho, sigma = perturbed_pair(RandomStateRecipe(modes=2, seed=seed))
        gc.validate_state(sigma.cov, sigma.mean)
        planted = equivalent_pair(RandomStateRecipe(modes=2, seed=seed))[1]
        assert np.max(np.abs(sigma.cov - planted.cov)) >= 0.04

    def test_custom_magnitude(self):
        _, small = perturbed_pair(RandomStateRecipe(modes=2, seed=3), magnitude=0.01)
        planted = equivalent_pair(RandomStateRecipe(modes=2, seed=3))[1]
        assert np.max(np.abs(small.cov - planted.cov)) == pytest.approx(0.01, abs=1e-12)

    def test_a_programming_error_is_not_retried(self, monkeypatch):
        # only an unphysical perturbation is undone; anything else propagates at once
        pair = equivalent_pair(RandomStateRecipe(modes=2, seed=3))
        calls = []

        def broken(cov, mean):
            calls.append(1)
            raise TypeError("broken")

        monkeypatch.setattr(sampling, "equivalent_pair", lambda recipe: pair)
        monkeypatch.setattr(sampling, "validate_state", broken)
        with pytest.raises(TypeError, match="broken"):
            perturbed_pair(RandomStateRecipe(modes=2, seed=3))
        assert len(calls) == 1


class TestWilliamsonInvarianceCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_small_deviation(self, seed):
        state = random_state(RandomStateRecipe(modes=2, seed=seed))
        assert williamson_invariance_check(state, seed=seed) <= 1e-8
