import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausscoh as gc
from gausscoh.core import block_norms, block_parts, isotropic_split
from gausscoh.equivalence import rotation
from gausscoh.sampling import RandomStateRecipe, random_state, random_symplectic


class TestSymplecticForm:
    def test_one_mode(self):
        np.testing.assert_array_equal(
            gc.symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]])
        )

    def test_block_diagonal(self):
        omega = gc.symplectic_form(2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = [[0, 1], [-1, 0]]
        expected[2:, 2:] = [[0, 1], [-1, 0]]
        np.testing.assert_array_equal(omega, expected)

    def test_squares_to_minus_identity(self):
        omega = gc.symplectic_form(3)
        np.testing.assert_allclose(omega @ omega, -np.eye(6))
        np.testing.assert_array_equal(omega.T, -omega)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            gc.symplectic_form(0)


class TestValidateState:
    def test_vacuum(self):
        state = gc.validate_state(np.eye(2), np.zeros(2))
        assert state.modes == 1
        np.testing.assert_array_equal(state.cov, np.eye(2))

    def test_sub_vacuum_rejected(self):
        with pytest.raises(gc.UncertaintyViolationError) as err:
            gc.validate_state(0.5 * np.eye(2), np.zeros(2))
        assert err.value.value == pytest.approx(0.5)

    def test_squeezed_vacuum_valid(self):
        r = 0.6
        cov = np.diag([np.exp(2 * r), np.exp(-2 * r)])
        state = gc.validate_state(cov, np.zeros(2))
        assert np.linalg.det(state.cov) == pytest.approx(1.0)
        assert gc.williamson_spectrum(state)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "cov",
        [-3.0 * np.eye(2), np.diag([3.0, 3.0, -3.0, -3.0])],
        ids=["negative", "indefinite"],
    )
    def test_not_positive_definite_rejected(self, cov):
        # the symplectic moduli of these are 3, which alone would pass
        with pytest.raises(gc.UncertaintyViolationError) as err:
            gc.validate_state(cov, np.zeros(len(cov)))
        assert err.value.value == pytest.approx(-3.0)

    @pytest.mark.parametrize("entry", ["cov", "mean"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, entry, value):
        # NaN passes every comparison that would reject it, and inf + (-inf) is NaN
        cov, mean = 2.0 * np.eye(2), np.zeros(2)
        {"cov": cov, "mean": mean}[entry][0] = value
        with pytest.raises(gc.NonFiniteError):
            gc.validate_state(cov, mean)

    def test_shape_mismatch(self):
        with pytest.raises(gc.ShapeError):
            gc.validate_state(np.eye(2), np.zeros(4))
        with pytest.raises(gc.ShapeError):
            gc.validate_state(np.eye(3), np.zeros(3))

    def test_asymmetry_rejected(self):
        cov = np.array([[2.0, 0.5], [-0.5, 2.0]])
        with pytest.raises(gc.NotSymmetricError):
            gc.validate_state(cov, np.zeros(2))

    def test_small_asymmetry_symmetrized(self):
        cov = np.array([[2.0, 1e-12], [0.0, 2.0]])
        state = gc.validate_state(cov, np.zeros(2))
        np.testing.assert_array_equal(state.cov, state.cov.T)

    def test_states_are_immutable(self):
        state = gc.vacuum()
        with pytest.raises(ValueError):
            state.cov[0, 0] = 5.0


class TestWilliamsonSpectrum:
    def test_two_mode_vacuum(self):
        np.testing.assert_allclose(gc.williamson_spectrum(gc.vacuum(2)), [1.0, 1.0])

    def test_thermal(self):
        state = gc.validate_state(3.0 * np.eye(2), np.zeros(2))
        np.testing.assert_allclose(gc.williamson_spectrum(state), [3.0])

    def test_two_mode_standard_form_pure(self):
        # v_pm formula: Delta = 8 - 2*3 = 2, det V = 1 -> both values 1
        state = gc.two_mode_standard_form(2.0, 2.0, np.sqrt(3.0), -np.sqrt(3.0))
        np.testing.assert_allclose(
            gc.williamson_spectrum(state), [1.0, 1.0], atol=1e-10
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_product_rule(self, seed):
        state = random_state(RandomStateRecipe(modes=3, seed=seed))
        spectrum = gc.williamson_spectrum(state)
        assert np.prod(spectrum**2) == pytest.approx(
            np.linalg.det(state.cov), rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_symplectic_invariance(self, seed):
        state = random_state(RandomStateRecipe(modes=2, seed=seed))
        rng = np.random.default_rng(seed + 1000)
        s = random_symplectic(2, rng)
        conjugated = gc.validate_state(s @ state.cov @ s.T, s @ state.mean)
        np.testing.assert_allclose(
            gc.williamson_spectrum(state),
            gc.williamson_spectrum(conjugated),
            atol=1e-8,
        )


def _fresh_spectrum(cov):
    """The symplectic spectrum from a new eigen-solve of Omega V."""
    m = cov.shape[0] // 2
    imag = np.sort(np.linalg.eigvals(gc.symplectic_form(m) @ cov).imag)
    return np.sort(imag[m:])


class TestStoredSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        direct=st.booleans(),
    )
    def test_equals_a_fresh_solve_and_is_read_only(self, m, seed, direct):
        state = random_state(RandomStateRecipe(modes=m, seed=seed, hypothesis=False))
        if direct:
            # built without validation: the partial transpose of mode 0,
            # which need not be a state
            flip = np.ones(2 * m)
            flip[1] = -1.0
            cov = state.cov * np.outer(flip, flip)
            state = gc.GaussianState(cov=cov, mean=state.mean.copy())
        np.testing.assert_array_equal(state.spectrum, _fresh_spectrum(state.cov))
        assert gc.williamson_spectrum(state) is state.spectrum
        with pytest.raises(ValueError):
            state.spectrum[0] = 0.0

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            gc.GaussianState(cov=np.eye(2), mean=np.zeros(2), modes=1)
        assert "spectrum" not in repr(gc.vacuum())


class TestIsPure:
    def test_vacuum_pure(self):
        assert gc.is_pure(gc.vacuum())

    def test_thermal_mixed(self):
        assert not gc.is_pure(gc.thermal([1.0]))

    @pytest.mark.parametrize("alpha,beta", [(0.3 + 0.4j, 0.2j), (1.0, 0.5), (2j, 0.7 + 0.1j)])
    def test_displaced_squeezed_pure(self, alpha, beta):
        assert gc.is_pure(gc.displaced_squeezed(alpha, beta))


class TestIsIncoherentState:
    def test_thermal_product(self):
        n = gc.is_incoherent_state(gc.thermal([0.5, 2.0]))
        np.testing.assert_allclose(n, [0.5, 2.0])

    def test_coherent_not_incoherent(self):
        assert gc.is_incoherent_state(gc.coherent(1.0)) is None

    def test_anisotropic_block_not_incoherent(self):
        state = gc.validate_state(np.diag([2.0, 3.0]), np.zeros(2))
        assert gc.is_incoherent_state(state) is None

    def test_cross_correlated_not_incoherent(self):
        state = gc.two_mode_standard_form(2.0, 2.0, 1.0, 1.0)
        assert gc.is_incoherent_state(state) is None

    def test_incoherent_mixed_unless_vacuum(self):
        assert not gc.is_pure(gc.thermal([0.3, 0.7]))
        assert gc.is_pure(gc.thermal([0.0, 0.0]))


class TestIsotropicSplit:
    def test_weights_and_remainder(self):
        cov = np.array(
            [
                [3.0, 0.5, 0.2, 0.0],
                [0.5, 1.0, 0.0, 0.0],
                [0.2, 0.0, 2.0, 0.0],
                [0.0, 0.0, 0.0, 2.0],
            ]
        )
        lam, rest = isotropic_split(cov)
        np.testing.assert_array_equal(lam, [2.0, 2.0])
        # mode 0's anisotropy diag(1, -1) plus the 0.5 pair, the 0.2 cross entry
        np.testing.assert_allclose(rest, [[np.sqrt(2.5), 0.2], [0.2, 0.0]])


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_revalidation_is_identity(self, seed):
        state = random_state(RandomStateRecipe(modes=2, seed=seed))
        again = gc.validate_state(state.cov.copy(), state.mean.copy())
        np.testing.assert_array_equal(state.cov, again.cov)
        np.testing.assert_array_equal(state.mean, again.mean)


class TestBlockParts:
    """The rotation/reflection split against per-block numpy, block by block."""

    @pytest.fixture()
    def state(self):
        return random_state(RandomStateRecipe(modes=3, seed=5))

    def test_parts_rebuild_each_block(self, state):
        p, q = block_parts(state.cov)
        for i in range(3):
            for j in range(3):
                a, b = p[i, j].real, p[i, j].imag
                c, d = q[i, j].real, q[i, j].imag
                rebuilt = np.array([[a + c, b - d], [-b - d, a - c]])
                block = state.cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                np.testing.assert_allclose(rebuilt, block, atol=1e-14)

    def test_norms_and_singular_values(self, state):
        p, q = block_parts(state.cov)
        norms = block_norms(state.cov)
        for i in range(3):
            for j in range(3):
                block = state.cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert norms[i, j] == pytest.approx(np.linalg.norm(block), rel=1e-14)
                sv = np.linalg.svd(block, compute_uv=False)
                s_p, s_q = abs(p[i, j]), abs(q[i, j])
                np.testing.assert_allclose(sv, [s_p + s_q, abs(s_p - s_q)], atol=1e-14)

    def test_conjugation_multiplies_phases(self, state):
        # R(a) M R(b)^t has parts P e^{i(a - b)} and Q e^{i(a + b)}
        a, b = 0.7, -1.9
        block = state.cov[0:2, 2:4]
        p, q = block_parts(state.cov)
        moved = np.zeros((4, 4))
        moved[0:2, 2:4] = rotation(a) @ block @ rotation(b).T
        moved[2:4, 0:2] = moved[0:2, 2:4].T
        p2, q2 = block_parts(moved)
        assert p2[0, 1] == pytest.approx(p[0, 1] * np.exp(1j * (a - b)), abs=1e-14)
        assert q2[0, 1] == pytest.approx(q[0, 1] * np.exp(1j * (a + b)), abs=1e-14)
