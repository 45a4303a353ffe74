import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import gausscoh as gc


class TestThermal:
    def test_cov_structure(self):
        state = gc.thermal([0.5, 2.0])
        np.testing.assert_array_equal(state.cov, np.diag([2.0, 2.0, 5.0, 5.0]))
        np.testing.assert_array_equal(state.mean, np.zeros(4))

    def test_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            gc.thermal([-0.1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gc.thermal([])


class TestVacuum:
    def test_default_one_mode(self):
        state = gc.vacuum()
        assert state.modes == 1
        np.testing.assert_array_equal(state.cov, np.eye(2))

    def test_multimode(self):
        assert gc.vacuum(3).modes == 3


class TestDisplacedSqueezed:
    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 0.0), (1.0 + 0.5j, 0.0), (0.0, 0.6), (0.7 - 0.2j, 0.4 * np.exp(1.1j))],
    )
    def test_purity(self, alpha, beta):
        state = gc.displaced_squeezed(alpha, beta)
        assert np.linalg.det(state.cov) == pytest.approx(1.0, abs=1e-12)
        assert gc.is_pure(state)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(1.0, 0.0), (0.0, 0.5), (1.0 + 2.0j, 0.3 * np.exp(0.4j)), (0.5j, 0.8)],
    )
    def test_mean_photon_number(self, alpha, beta):
        state = gc.displaced_squeezed(alpha, beta)
        expected = abs(alpha) ** 2 + np.sinh(abs(beta)) ** 2
        assert gc.mean_photon_numbers(state)[0] == pytest.approx(expected, abs=1e-10)

    def test_mean_vector(self):
        state = gc.displaced_squeezed(0.3 - 0.7j, 0.2)
        np.testing.assert_allclose(state.mean, [0.6, -1.4])

    def test_squeezing_phase_rotates_cov(self):
        r = 0.5
        plain = gc.displaced_squeezed(0.0, r)
        np.testing.assert_allclose(
            plain.cov, np.diag([np.exp(2 * r), np.exp(-2 * r)]), atol=1e-12
        )
        quarter = gc.displaced_squeezed(0.0, r * np.exp(1j * np.pi))
        np.testing.assert_allclose(
            quarter.cov, np.diag([np.exp(-2 * r), np.exp(2 * r)]), atol=1e-12
        )

    @pytest.mark.parametrize("r", [7.0, 9.0, 12.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unrotated_strong_squeezing_is_exact(self, sign, r):
        # theta = 0 or pi; cosh - sinh would cancel to nu - 1 = -5.4e-5 at
        # r = 7, and to a singular covariance at r = 12
        state = gc.displaced_squeezed(0.0, sign * r)
        assert abs(state.spectrum[0] - 1.0) <= 1e-15
        assert np.max(state.cov.diagonal()) == pytest.approx(np.exp(2 * r), rel=1e-14)

    @pytest.mark.parametrize("r", [178.0, 355.0, 356.0, 1e300])
    def test_overflowing_squeezing_rejected(self, r):
        # ||V||_F overflows past r = 177, the entries at r = 355, and
        # sinh(2r) itself past r = 355.2, which math.sinh raises as OverflowError
        with pytest.raises(gc.NonFiniteError):
            gc.displaced_squeezed(0.0, r)


class TestDisplacedSqueezedEquivalent:
    def test_same_parameters(self):
        assert gc.displaced_squeezed_equivalent(1.0, 0.5, 1.0, 0.5)

    def test_phase_matched_pair(self):
        # gamma shift pi/2 forces a theta shift of pi
        assert gc.displaced_squeezed_equivalent(
            1.0, 0.5, 1.0j, 0.5 * np.exp(1j * np.pi)
        )

    def test_phase_mismatched_pair(self):
        assert not gc.displaced_squeezed_equivalent(1.0, 0.5, 1.0j, 0.5)

    def test_magnitude_mismatch(self):
        assert not gc.displaced_squeezed_equivalent(1.0, 0.5, 1.1, 0.5)
        assert not gc.displaced_squeezed_equivalent(1.0, 0.5, 1.0, 0.6)

    def test_phase_free_when_not_displaced(self):
        assert gc.displaced_squeezed_equivalent(0.0, 0.5, 0.0, 0.5j)

    def test_phase_free_when_not_squeezed(self):
        assert gc.displaced_squeezed_equivalent(1.0, 0.0, 1.0j, 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        # a NaN tol passed every magnitude test, an infinite one every test
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            gc.displaced_squeezed_equivalent(1.0, 0.5, 2.0, 0.5, tol=tol)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_decider(self, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        beta = rng.uniform(0.2, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if seed % 2:
            alpha2 = abs(alpha) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            beta2 = abs(beta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        else:
            dgamma = rng.uniform(0, 2 * np.pi)
            alpha2 = alpha * np.exp(1j * dgamma)
            beta2 = beta * np.exp(2j * dgamma)
        closed = gc.displaced_squeezed_equivalent(alpha, beta, alpha2, beta2, tol=1e-7)
        verdict = gc.decide_equivalence(
            gc.displaced_squeezed(alpha, beta),
            gc.displaced_squeezed(alpha2, beta2),
        )
        assert closed == isinstance(verdict, gc.Equivalent)


class TestTwoModeStandardForm:
    def test_structure(self):
        state = gc.two_mode_standard_form(2.0, 3.0, 0.8, -0.5)
        np.testing.assert_array_equal(state.mode_cov(0), 2.0 * np.eye(2))
        np.testing.assert_array_equal(state.mode_cov(1), 3.0 * np.eye(2))
        np.testing.assert_array_equal(state.cross_cov(0, 1), np.diag([0.8, -0.5]))

    def test_custom_mean(self):
        mean = np.array([1.0, 0.0, -1.0, 2.0])
        state = gc.two_mode_standard_form(2.0, 2.0, 0.5, 0.5, mean=mean)
        np.testing.assert_array_equal(state.mean, mean)

    def test_unphysical_rejected(self):
        with pytest.raises(gc.UncertaintyViolationError):
            gc.two_mode_standard_form(1.0, 1.0, 0.9, 0.9)


class TestStandardFormSpectra:
    @pytest.mark.parametrize(
        "params,expected",
        [
            ((2.0, 3.0, 0.0, 0.0), (3.0, 2.0)),
            ((2.0, 2.0, 1.0, 1.0), (3.0, 1.0)),
            ((2.0, 2.0, np.sqrt(3.0), -np.sqrt(3.0)), (1.0, 1.0)),
        ],
    )
    def test_worked_values(self, params, expected):
        v_plus, v_minus, _, _ = gc.standard_form_spectra(*params)
        assert v_plus == pytest.approx(expected[0], abs=1e-10)
        assert v_minus == pytest.approx(expected[1], abs=1e-10)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_williamson(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            a = rng.uniform(1.0, 4.0)
            b = rng.uniform(1.0, 4.0)
            c = rng.uniform(-1.0, 1.0)
            d = rng.uniform(-1.0, 1.0)
            try:
                state = gc.two_mode_standard_form(a, b, c, d)
            except (gc.UncertaintyViolationError, gc.NumericError):
                continue
            v_plus, v_minus, _, _ = gc.standard_form_spectra(a, b, c, d)
            spectrum = sorted(gc.williamson_spectrum(state), reverse=True)
            assert spectrum[0] == pytest.approx(v_plus, abs=1e-9)
            assert spectrum[1] == pytest.approx(v_minus, abs=1e-9)
            break
        else:
            pytest.skip("no physical sample drawn")

    def test_partial_transpose_flips_momentum_sign(self):
        a, b, c, d = 2.0, 2.0, 1.0, -0.8
        _, _, pt_plus, pt_minus = gc.standard_form_spectra(a, b, c, d)
        direct = gc.standard_form_spectra(a, b, c, -d)
        assert pt_plus == pytest.approx(direct[0], abs=1e-12)
        assert pt_minus == pytest.approx(direct[1], abs=1e-12)

    def test_near_degenerate_state_does_not_raise(self):
        # Delta^2 - 4 det V rounds at about eps Delta^2 = 2 here, and read -3.0
        params = (12002.391000117168, 12002.391000104304, -10076.558927890539, 10076.558932518812)
        spectrum = gc.two_mode_standard_form(*params).spectrum
        v_plus, v_minus, _, _ = gc.standard_form_spectra(*params)
        assert v_plus == pytest.approx(spectrum[1], rel=1e-12)
        assert v_minus == pytest.approx(spectrum[0], rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_near_degenerate_sweep_within_rounding(self, seed):
        # a ~ b up to 1e5 and d ~ -c; every nu^2 is within a few eps of the
        # size of Delta's terms of its value in 60-digit arithmetic
        def exact(a, b, c, d):
            with localcontext() as ctx:
                ctx.prec = 60
                a, b, c, d = map(Decimal, (a, b, c, d))
                delta = a * a + b * b + 2 * c * d
                root = (delta * delta - 4 * (a * b - c * c) * (a * b - d * d)).sqrt()
                return [float((delta + root) / 2), float((delta - root) / 2)]

        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(250):
            a = 10.0 ** rng.uniform(0.0, 5.0)
            b = a * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -3.0))
            c = rng.uniform(-1.0, 1.0) * np.sqrt(a * b)
            d = -c * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -3.0))
            try:
                gc.two_mode_standard_form(a, b, c, d)
            except gc.UncertaintyViolationError:
                continue
            got = np.square(gc.standard_form_spectra(a, b, c, d))
            want = exact(a, b, c, d) + exact(a, b, c, -d)
            size = a * a + b * b + 2.0 * abs(c * d)
            assert np.abs(got - want).max() <= 4.0 * np.finfo(float).eps * size
            checked += 1
        assert checked > 200

    @staticmethod
    def _spectra_60(a, b, c, d):
        """(v_plus, v_minus, pt_v_plus, pt_v_minus) in 60-digit arithmetic."""
        with localcontext() as ctx:
            ctx.prec = 60
            a, b, c, d = map(Decimal, (a, b, c, d))
            out = []
            for d in (d, -d):
                delta = a * a + b * b + 2 * c * d
                # (a^2 - b^2)^2 + 4 (ac + bd)(bc + ad) = Delta^2 - 4 det V, with
                # no rounding to a negative value where it is 0
                root = ((a * a - b * b) ** 2 + 4 * (a * c + b * d) * (b * c + a * d)).sqrt()
                out += [((delta + root) / 2).sqrt(), ((delta - root) / 2).sqrt()]
            return out

    def _assert_within_8_eps(self, params):
        got = gc.standard_form_spectra(*params)
        for value, want in zip(got, self._spectra_60(*params)):
            assert abs(Decimal(value) - want) <= 8 * Decimal(np.finfo(float).eps) * want

    def test_degenerate_pure_state_at_large_occupation(self):
        # a = b = 1e5, c = -d = sqrt(a^2 - 1): Delta - sqrt(disc) in doubles
        # cancelled to nu_- = 0.9999990463, where the exact value is 0.9999994417
        c = math.sqrt(1e10 - 1.0)
        self._assert_within_8_eps((1e5, 1e5, c, -c))
        _, v_minus, _, _ = gc.standard_form_spectra(1e5, 1e5, c, -c)
        assert v_minus == pytest.approx(0.9999994417, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_near_degenerate_near_pure_sweep(self, seed):
        # a ~ b up to 1e5, d ~ -c and ab - c^2 down to 1: nu_-^2
        # near 1 sits up to ten digits below Delta, and every nu is within 8 eps
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(100):
            a = 10.0 ** rng.uniform(0.5, 5.0)
            b = a * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -4.0))
            gap = 10.0 ** rng.uniform(0.0, math.log10(a * b))
            c = rng.choice([-1.0, 1.0]) * math.sqrt(a * b - gap)
            d = -c * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -6.0))
            try:
                gc.two_mode_standard_form(a, b, c, d)
            except gc.UncertaintyViolationError:
                continue
            self._assert_within_8_eps((a, b, c, d))
            checked += 1
        assert checked > 50

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            gc.standard_form_spectra(2.0, 2.0, 1.0, bad)

    def test_unphysical_parameters_raise(self):
        # 2 |c| > a + b with d = -c: Omega V has real eigenvalues
        with pytest.raises(gc.NumericError, match="negative discriminant"):
            gc.standard_form_spectra(1.0, 3.0, 2.5, -2.5)

    def test_entangled_state_has_pt_value_below_one(self):
        # pure maximally-correlated standard form violates the PT criterion
        _, _, _, pt_minus = gc.standard_form_spectra(
            2.0, 2.0, np.sqrt(3.0), -np.sqrt(3.0)
        )
        assert pt_minus < 1.0


class TestEquivalenceClassSamples:
    def test_members_are_equivalent(self):
        state = gc.two_mode_standard_form(
            2.0, 3.0, 0.8, -0.5, mean=np.array([1.0, 0.5, -0.3, 0.2])
        )
        plain, swapped = gc.equivalence_class_samples(state, 0.7, 1.9)
        for member in (plain, swapped):
            verdict = gc.decide_equivalence(state, member)
            assert isinstance(verdict, gc.Equivalent)
            assert verdict.residual <= 1e-8

    def test_swapped_member_exchanges_spectra_blocks(self):
        state = gc.two_mode_standard_form(2.0, 3.0, 0.8, -0.5)
        _, swapped = gc.equivalence_class_samples(state, 0.0, 0.0)
        np.testing.assert_allclose(swapped.mode_cov(0), 3.0 * np.eye(2), atol=1e-12)

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(ValueError):
            gc.equivalence_class_samples(gc.vacuum(), 0.0, 0.0)
