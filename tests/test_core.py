from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gausscoh as gc
from gausscoh.core import block_norms, block_parts, default_tol, isotropic_split, rotation
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

    @pytest.mark.parametrize(
        "cov",
        [np.diag([2e9, 0.0]), np.diag([0.0, 2e9, 1.0, 1.0])],
        ids=["one-mode", "two-mode"],
    )
    def test_singular_rejected_at_any_norm(self, cov):
        # t = 1e-9 ||V||_F exceeds 1 here, so nu >= 1 - t alone would accept nu = 0
        with pytest.raises(gc.UncertaintyViolationError, match="singular to working") as err:
            gc.validate_state(cov, np.zeros(len(cov)))
        assert err.value.value == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8, 16]),
        seed=st.integers(0, 2**32 - 1),
        lowest=st.floats(-3.0, 3.0),
    )
    def test_the_factor_accepts_as_the_lowest_eigenvalue_rule(self, n, seed, lowest):
        # V's lowest eigenvalue is lowest * t: the rule's edge -t and 0 both
        # lie inside the range, and on either side the outcome is eigvalsh's
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        rest = rng.uniform(1.0, 5.0, size=n - 1)
        eigs = np.concatenate([[lowest * 1e-9 * max(1.0, np.linalg.norm(rest))], rest])
        cov = q @ np.diag(eigs) @ q.T
        want = float(np.linalg.eigvalsh((cov + cov.T) / 2.0)[0])
        rejected = want < -default_tol(cov)
        with (
            mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as factored,
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as solved,
        ):
            try:
                gc.validate_state(cov, np.zeros(n))
                error = None
            except gc.UncertaintyViolationError as exc:
                error = exc
        assert factored.call_count == 1
        # a V with every eigenvalue clear of rounding takes no eigvalsh of V
        # itself: the one solve is the spectrum's, on a complex Hermitian matrix
        if lowest > 0.5:
            assert [np.iscomplexobj(c.args[0]) for c in solved.call_args_list] == [True]
        if rejected:
            assert "not positive definite" in str(error)
            assert error.value == want
        else:
            assert error is None or "not positive definite" not in str(error)

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
        for cov in (np.eye(3), np.ones(4), np.ones((2, 4)), np.ones((2, 2, 2)), np.ones((0, 0))):
            with pytest.raises(gc.ShapeError, match="covariance must be"):
                gc.validate_state(cov, np.zeros(len(cov)))

    def test_errors_keep_their_order(self):
        # non-finite before shape, shape before asymmetry, asymmetry before
        # the uncertainty relation, whichever array holds the fault
        asym = np.array([[2.0, 0.5], [-0.5, 2.0]])
        with pytest.raises(gc.NonFiniteError):
            gc.validate_state(np.ones(3), np.array([np.nan]))
        with pytest.raises(gc.ShapeError):
            gc.validate_state(asym, np.zeros(3))
        with pytest.raises(gc.NotSymmetricError):
            gc.validate_state(asym - 1.9 * np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="tolerance"):
            gc.validate_state(asym, np.zeros(2), tol=-1.0)

    def test_inputs_are_copied(self):
        cov, mean = 2.0 * np.eye(2), np.ones(2)
        state = gc.validate_state(cov, mean)
        cov[0, 0] = mean[0] = 5.0
        assert state.cov[0, 0] == 2.0 and state.mean[0] == 1.0

    def test_asymmetry_rejected(self):
        cov = np.array([[2.0, 0.5], [-0.5, 2.0]])
        with pytest.raises(gc.NotSymmetricError):
            gc.validate_state(cov, np.zeros(2))

    def test_small_asymmetry_symmetrized(self):
        cov = np.array([[2.0, 1e-12], [0.0, 2.0]])
        state = gc.validate_state(cov, np.zeros(2))
        np.testing.assert_array_equal(state.cov, state.cov.T)

    def test_asymmetry_is_measured_against_the_norm(self):
        # ||V||_F = 100 sqrt(2): the default tolerance is 1.41e-7, above DEFAULT_TOL_REL
        for gap, symmetric in ((1e-7, True), (2e-7, False)):
            cov = 100.0 * np.eye(2)
            cov[0, 1] = gap
            if symmetric:
                assert gc.validate_state(cov, np.zeros(2)).cov[0, 1] == gap / 2.0
            else:
                with pytest.raises(gc.NotSymmetricError):
                    gc.validate_state(cov, np.zeros(2))

    def test_takes_the_frobenius_norm_once(self, monkeypatch):
        state = random_state(RandomStateRecipe(modes=16, seed=1, mean_scale=1.0))
        # asymmetric by far less than DEFAULT_TOL_REL, as rounding leaves U V U^t
        nudged = state.cov.copy()
        nudged[0, 1] += 1e-13
        ndims, real = [], np.linalg.norm

        def spy(x, *args, **kwargs):
            ndims.append(np.ndim(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        for cov, tol in ((state.cov, None), (nudged, None), (nudged, 1e-6)):
            ndims.clear()
            built = gc.validate_state(cov, state.mean, tol)
            assert ndims == [2]
            assert built.scale == max(1.0, real(built.cov))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_overflowing_norm_rejected(self, seed):
        # ||V||_F overflows while every entry is finite; with an infinite scale
        # every tolerance was infinite, and the decider read the pair all incoherent
        state = random_state(RandomStateRecipe(modes=2, seed=seed))
        for tol in (None, 1e-6):
            with pytest.raises(gc.NonFiniteError, match="Frobenius norm of the covariance"):
                gc.validate_state(1e200 * state.cov, 1e100 * state.mean, tol)
        with pytest.raises(gc.NonFiniteError, match="Frobenius norm of the matrix"):
            default_tol(1e200 * state.cov)
        # just below the edge the norm is finite, and so is the state's scale
        edge = gc.validate_state(9e153 * np.eye(2), np.zeros(2))
        assert edge.scale == pytest.approx(9e153 * np.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("x", [1e200, 1.5e154])
    def test_overflowing_mean_rejected(self, x):
        # every entry is finite but ||d||^2 is not: the decider's mean bands
        # would be infinite, and the state not equivalent to itself
        with pytest.raises(gc.NonFiniteError, match="squared norm of the mean"):
            gc.validate_state(np.eye(2), (x, 0.0))

    def test_mean_below_the_overflow_is_kept(self):
        state = gc.validate_state(np.eye(2), (1e154, 0.0))
        assert gc.decide_equivalence(state, state) == gc.Equivalent(
            certificate=gc.IncoherentUnitary(perm=(0,), angles=(0.0,)), residual=0.0
        )

    @pytest.mark.parametrize("tol", [float("nan"), -1e-3, float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tolerance would skip the uncertainty check and accept V = 0.1 I;
        # a negative one would reject the identity as asymmetric
        for cov in (0.1 * np.eye(2), np.eye(2)):
            with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
                gc.validate_state(cov, np.zeros(2), tol=tol)

    def test_states_are_immutable(self):
        state = gc.vacuum()
        with pytest.raises(ValueError):
            state.cov[0, 0] = 5.0


class TestIdentity:
    def test_equal_states_are_distinct(self):
        a, b = gc.coherent(1.0), gc.coherent(1.0)
        assert a == a and a != b
        assert a in [a, b] and a not in [b]
        assert len({a, b, a}) == 2
        assert {a: 1, b: 2}[b] == 2
        assert hash(a) == hash(a)


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
    """The symplectic spectrum from an independent, non-symmetric solve of Omega V."""
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
        # both solves are backward stable; up to m = 128 they differed by at
        # most 11 eps * scale
        bound = 64 * np.finfo(float).eps * state.scale
        fresh = _fresh_spectrum(state.cov)
        np.testing.assert_allclose(state.spectrum, fresh, rtol=0, atol=bound)
        assert gc.williamson_spectrum(state) is state.spectrum
        with pytest.raises(ValueError):
            state.spectrum[0] = 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        r=st.floats(0.0, 8.0),
        nu=st.floats(1.0, 3.0),
        theta=st.floats(0.0, 2 * np.pi),
    )
    @example(r=8.0, nu=1.0, theta=0.7)
    def test_one_mode_within_rounding_under_strong_squeezing(self, r, nu, theta):
        # nu^2 = det V, and a backward error of eps ||V|| in V moves det V by
        # about eps lambda_max^2, so nu by eps lambda_max^2 / (2 nu): at r = 8
        # that is 1 % of nu, the float64 limit of a strongly squeezed state
        squeezed = np.diag([np.exp(2 * r), np.exp(-2 * r)])
        cov = nu * rotation(theta) @ squeezed @ rotation(theta).T
        cov = (cov + cov.T) / 2.0
        state = gc.GaussianState(cov=cov, mean=np.zeros(2))
        with localcontext() as ctx:
            ctx.prec = 60
            a, b, c = map(Decimal, (cov[0, 0], cov[1, 0], cov[1, 1]))
            exact = float((a * c - b * b).sqrt())
        lambda_max = np.linalg.eigvalsh(cov)[-1]
        bound = 2 * np.finfo(float).eps * lambda_max**2 / exact
        assert abs(state.spectrum[0] - exact) <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        mean_scale=st.sampled_from([0.0, 1.0, 300.0]),
        shrink=st.sampled_from([1.0, 1e-3]),
    )
    def test_scale_is_the_frobenius_norm_at_least_one(self, m, seed, mean_scale, shrink):
        state = random_state(RandomStateRecipe(modes=m, seed=seed, mean_scale=mean_scale))
        # shrunk below norm 1 without validation, where max(1, .) decides
        state = gc.GaussianState(cov=shrink * state.cov, mean=state.mean.copy())
        assert state.scale == max(1.0, np.linalg.norm(state.cov))
        with pytest.raises(AttributeError):
            state.scale = 2.0
        with pytest.raises(TypeError):
            gc.GaussianState(cov=state.cov, mean=state.mean, scale=state.scale)

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

    def test_occupations_are_python_floats(self):
        # np.float64 subclasses float, so the exact type is checked; the values
        # are those of the weights' numpy arithmetic
        state = gc.thermal([0.5, 2.0, 0.0, 7.25])
        n = gc.is_incoherent_state(state)
        assert [type(x) for x in n] == [float] * 4
        lam = isotropic_split(state.cov)[0]
        assert n == [max(float(x - 1.0) / 2.0, 0.0) for x in lam]

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
