import numpy as np
import pytest

import gausscoh as gc
from gausscoh.channels import igo_channel, rotation_channel
from gausscoh.sampling import RandomStateRecipe, random_state


def one_mode_attenuator(t=0.5, w=0.75):
    return gc.validate_channel(t * np.eye(2), w * np.eye(2), np.zeros(2))


class TestValidateChannel:
    def test_identity(self):
        ch = gc.validate_channel(np.eye(4), np.zeros((4, 4)), np.zeros(4))
        assert ch.modes == 2

    def test_attenuator_on_cp_boundary(self):
        # min eigenvalue of 0.75 I + i (1 - 0.25) Omega is exactly zero
        one_mode_attenuator(0.5, 0.75)
        with pytest.raises(gc.NotCompletelyPositiveError):
            one_mode_attenuator(0.5, 0.70)

    def test_amplifying_t_without_noise_rejected(self):
        with pytest.raises(gc.NotCompletelyPositiveError) as err:
            gc.validate_channel(2.0 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
        assert err.value.min_eigenvalue == pytest.approx(-3.0)

    @pytest.mark.parametrize("entry", ["T", "N", "shift"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, entry, value):
        parts = {"T": np.eye(2), "N": np.eye(2), "shift": np.zeros(2)}
        parts[entry].flat[0] = value
        with pytest.raises(gc.NonFiniteError):
            gc.validate_channel(parts["T"], parts["N"], parts["shift"])

    @pytest.mark.parametrize(
        "T",
        [1e200 * np.eye(2), np.array([[1e200, 3e199], [0.0, 1e-300]])],
        ids=["noiseless-amplifier", "not-scaled-orthogonal"],
    )
    @pytest.mark.parametrize("tol", [None, 0.1])
    def test_overflowing_norm_rejected(self, T, tol):
        # at an infinite tolerance the first passed complete positivity and both
        # were classified strictly incoherent
        with pytest.raises(gc.NonFiniteError, match=r"Frobenius norm of \[T; N\]"):
            gc.validate_channel(T, np.zeros((2, 2)), np.zeros(2), tol)

    def test_shape_errors(self):
        with pytest.raises(gc.ShapeError):
            gc.validate_channel(np.eye(2), np.eye(4), np.zeros(2))
        with pytest.raises(gc.ShapeError):
            gc.validate_channel(np.eye(3), np.eye(3), np.zeros(3))

        with pytest.raises(gc.ShapeError, match="shift must have"):
            gc.validate_channel(np.eye(2), np.eye(2), np.zeros(3))

    def test_asymmetric_noise_rejected(self):
        N = np.array([[1.0, 1e-3], [0.0, 1.0]])
        with pytest.raises(gc.NotSymmetricError, match="N asymmetry"):
            gc.validate_channel(np.eye(2), N, np.zeros(2))
        # a shape fault of T or the shift is reported first
        with pytest.raises(gc.ShapeError):
            gc.validate_channel(np.eye(2), N, np.zeros(3))
        with pytest.raises(gc.ShapeError):
            gc.validate_channel(np.eye(4), N, np.zeros(4))
        # within tolerance it is symmetrized
        N[0, 1] = 1e-12
        np.testing.assert_array_equal(
            gc.validate_channel(np.eye(2), N, np.zeros(2)).N, [[1.0, 5e-13], [5e-13, 1.0]]
        )

    def test_inputs_are_copied_not_frozen(self):
        T, N, shift = np.eye(2), np.eye(2), np.zeros(2)
        channel = gc.validate_channel(T, N, shift)
        T[0, 0] = shift[0] = 3.0
        assert channel.T[0, 0] == 1.0 and channel.shift[0] == 0.0
        with pytest.raises(ValueError):
            channel.T[0, 0] = 3.0

    def test_equal_channels_are_distinct(self):
        a, b = rotation_channel(0.3), rotation_channel(0.3)
        assert a == a and a != b
        assert a in [a] and a not in [b]
        assert len({a, b}) == 2


class TestApplyChannel:
    def test_identity_preserves_state(self):
        state = gc.coherent(1.0 + 0.5j)
        ch = gc.validate_channel(np.eye(2), np.zeros((2, 2)), np.zeros(2))
        out = gc.apply_channel(ch, state)
        np.testing.assert_allclose(out.cov, state.cov)
        np.testing.assert_allclose(out.mean, state.mean)

    def test_attenuated_thermal(self):
        out = gc.apply_channel(one_mode_attenuator(), gc.thermal([1.0]))
        np.testing.assert_allclose(out.cov, 1.5 * np.eye(2))
        assert gc.is_incoherent_state(out) == [pytest.approx(0.25)]

    def test_rotation_moves_mean(self):
        theta = 0.7
        out = gc.apply_channel(rotation_channel(theta), gc.coherent(1.0))
        np.testing.assert_allclose(
            out.mean, [2 * np.cos(theta), -2 * np.sin(theta)], atol=1e-12
        )
        np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-14)

    def test_mode_mismatch(self):
        with pytest.raises(gc.ShapeError):
            gc.apply_channel(one_mode_attenuator(), gc.vacuum(2))

    def test_composition(self):
        rng = np.random.default_rng(7)
        phi = gc.random_igo(2, strict=False, rng=rng)
        psi = gc.random_igo(2, strict=True, rng=rng)
        state = random_state(RandomStateRecipe(modes=2, seed=3, hypothesis=False))
        stepwise = gc.apply_channel(psi, gc.apply_channel(phi, state))
        composed = gc.apply_channel(psi.compose(phi), state)
        np.testing.assert_allclose(stepwise.cov, composed.cov, atol=1e-10)
        np.testing.assert_allclose(stepwise.mean, composed.mean, atol=1e-10)


class TestClassifyIncoherent:
    def test_rotation_strictly_incoherent(self):
        cls = gc.classify_incoherent(rotation_channel(np.pi / 5))
        assert cls.verdict == "strictly-incoherent"
        assert cls.spec.noise == (0.0,)

    def test_attenuator_at_noise_boundary(self):
        cls = gc.classify_incoherent(one_mode_attenuator(0.5, 0.75))
        assert cls.verdict == "strictly-incoherent"
        assert cls.spec.scales[0] == pytest.approx(0.5)

    def test_beamsplitter_not_incoherent(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        T = np.kron(np.array([[c, s], [-s, c]]), np.eye(2))
        ch = gc.validate_channel(T, np.zeros((4, 4)), np.zeros(4))
        cls = gc.classify_incoherent(ch)
        assert cls.verdict == "not-incoherent"
        assert "column pair" in cls.reason

    def test_nonzero_shift_not_incoherent(self):
        ch = gc.validate_channel(np.eye(2), np.zeros((2, 2)), np.array([1.0, 0.0]))
        assert gc.classify_incoherent(ch).verdict == "not-incoherent"

    def test_merging_channel_incoherent_but_not_strict(self):
        # both modes sent to mode 1 with t = 1/sqrt(2); mode 2 receives nothing
        t = 1 / np.sqrt(2)
        T = np.zeros((4, 4))
        T[:2, :2] = t * np.eye(2)
        T[:2, 2:] = t * np.eye(2)
        N = np.kron(np.diag([0.1, 1.0]), np.eye(2))
        ch = gc.validate_channel(T, N, np.zeros(4))
        cls = gc.classify_incoherent(ch)
        assert cls.verdict == "incoherent"
        assert cls.spec.targets == (0, 0)

    def test_insufficient_noise_rejected(self):
        # for this block family the noise bound coincides with complete
        # positivity, so an undershooting channel is rejected at validation
        t = 1 / np.sqrt(2)
        T = np.zeros((4, 4))
        T[:2, :2] = t * np.eye(2)
        T[:2, 2:] = t * np.eye(2)
        # mode 2 receives nothing, needs omega >= 1
        N = np.kron(np.diag([0.1, 0.5]), np.eye(2))
        with pytest.raises(gc.NotCompletelyPositiveError):
            gc.validate_channel(T, N, np.zeros(4))
        # classification reports the bound violation on an unvalidated triple
        raw = gc.GaussianChannel(T=T, N=N, shift=np.zeros(4))
        cls = gc.classify_incoherent(raw)
        assert cls.verdict == "not-incoherent"
        assert "below the required bound" in cls.reason

    # the remaining reasons, on unvalidated triples; the first failure wins
    def test_unscaled_block_rejected(self):
        raw = gc.GaussianChannel(T=np.diag([1.0, 2.0]), N=np.eye(2), shift=np.zeros(2))
        cls = gc.classify_incoherent(raw)
        assert cls.verdict == "not-incoherent"
        assert cls.reason == "block in column pair 0 is not a scaled orthogonal matrix"

    def test_correlated_noise_rejected(self):
        # mode 2 is also anisotropic, but row 1's cross block comes first
        N = np.eye(6)
        N[2:4, 4:6] = N[4:6, 2:4] = 0.1 * np.eye(2)
        N[4, 4] = 2.0
        raw = gc.GaussianChannel(T=np.eye(6), N=N, shift=np.zeros(6))
        cls = gc.classify_incoherent(raw)
        assert cls.verdict == "not-incoherent"
        assert cls.reason == "N has a nonzero off-diagonal block at (1, 2)"

    def test_anisotropic_noise_rejected(self):
        # mode 0's anisotropy comes before the cross block in row 1
        N = np.eye(6)
        N[0, 0] = 2.0
        N[2:4, 4:6] = N[4:6, 2:4] = 0.1 * np.eye(2)
        raw = gc.GaussianChannel(T=np.eye(6), N=N, shift=np.zeros(6))
        cls = gc.classify_incoherent(raw)
        assert cls.verdict == "not-incoherent"
        assert cls.reason == "N block at mode 0 is not a multiple of the identity"

    @pytest.mark.parametrize("seed", range(10))
    def test_spec_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        ch = gc.random_igo(3, strict=bool(seed % 2), rng=rng)
        spec = gc.classify_incoherent(ch).spec
        rebuilt = igo_channel(spec)
        np.testing.assert_allclose(rebuilt.T, ch.T, atol=1e-12)
        np.testing.assert_allclose(rebuilt.N, ch.N, atol=1e-12)
        spec2 = gc.classify_incoherent(rebuilt).spec
        assert spec2.targets == spec.targets
        assert spec2.strict == spec.strict
        np.testing.assert_allclose(spec2.scales, spec.scales, atol=1e-12)
        np.testing.assert_allclose(spec2.noise, spec.noise, atol=1e-12)
        np.testing.assert_allclose(spec2.rotations, spec.rotations, atol=1e-12)


class TestRandomIgo:
    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError, match="mode count must be positive"):
            gc.random_igo(0, strict=True, rng=np.random.default_rng(0))

    def test_strict_classification(self):
        for seed in range(20):
            ch = gc.random_igo(3, strict=True, rng=np.random.default_rng(seed))
            assert gc.classify_incoherent(ch).verdict == "strictly-incoherent"

    def test_deterministic_in_seed(self):
        a = gc.random_igo(2, strict=False, rng=np.random.default_rng(5))
        b = gc.random_igo(2, strict=False, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.T, b.T)
        np.testing.assert_array_equal(a.N, b.N)

    @pytest.mark.parametrize("seed", range(50))
    def test_samples_pass_cp_and_preserve_incoherence(self, seed):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 4
        ch = gc.random_igo(m, strict=bool(seed % 2), rng=rng)
        # validate_channel already ran inside construction; re-check explicitly
        gc.validate_channel(ch.T, ch.N, ch.shift)
        thermal_in = gc.thermal(list(rng.uniform(0.1, 2.0, size=m)))
        assert gc.is_incoherent_state(gc.apply_channel(ch, thermal_in)) is not None


class TestPetzRecovery:
    def test_unitary_channel_recovers_by_inverse(self):
        ch = rotation_channel(0.9)
        rec = gc.petz_recovery(ch, gc.thermal([1.0]))
        np.testing.assert_allclose(rec.T, ch.T.T, atol=1e-12)
        np.testing.assert_allclose(rec.N, np.zeros((2, 2)), atol=1e-12)

    def test_worked_attenuator_example(self):
        rec = gc.petz_recovery(one_mode_attenuator(0.5, 0.75), gc.thermal([1.0]))
        assert rec.T[0, 0] == pytest.approx(np.sqrt(8.0) * 0.5 / np.sqrt(1.25), abs=1e-5)
        assert rec.N[0, 0] == pytest.approx(0.6, abs=1e-5)

    def test_reference_round_trip(self):
        delta = gc.thermal([1.0])
        ch = one_mode_attenuator()
        rec = gc.petz_recovery(ch, delta)
        back = gc.apply_channel(rec, gc.apply_channel(ch, delta))
        assert np.linalg.norm(back.cov - delta.cov) <= 1e-10
        assert np.linalg.norm(back.mean - delta.mean) <= 1e-10

    @pytest.mark.parametrize("seed", range(25))
    def test_random_igo_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 3
        ch = gc.random_igo(m, strict=bool(seed % 2), rng=rng)
        delta = gc.thermal(list(rng.uniform(0.2, 2.0, size=m)))
        try:
            rec = gc.petz_recovery(ch, delta)
        except gc.NotFaithfulError:
            pytest.skip("sampled channel collapses a mode")
        back = gc.apply_channel(rec, gc.apply_channel(ch, delta))
        assert np.linalg.norm(back.cov - delta.cov) <= 1e-10
        assert np.linalg.norm(back.mean - delta.mean) <= 1e-10
        if gc.classify_incoherent(ch).is_strict:
            assert gc.classify_incoherent(rec).is_incoherent

    def test_coherence_preserving_unitary_recovers_state(self):
        # strictly incoherent unitary freezes coherence; Petz recovery
        # built on a thermal reference must then restore the state itself
        ch = rotation_channel(1.3)
        rho = gc.coherent(1.0)
        rec = gc.petz_recovery(ch, gc.thermal([1.0]))
        back = gc.apply_channel(rec, gc.apply_channel(ch, rho))
        assert np.linalg.norm(back.cov - rho.cov) <= 1e-6
        assert np.linalg.norm(back.mean - rho.mean) <= 1e-6

    def test_not_faithful_detected(self):
        # t = 0 sends everything to the vacuum when omega = 1
        ch = gc.validate_channel(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        with pytest.raises(gc.NotFaithfulError):
            gc.petz_recovery(ch, gc.thermal([1.0]))

    def test_rejects_non_incoherent_channel(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        T = np.kron(np.array([[c, s], [-s, c]]), np.eye(2))
        ch = gc.validate_channel(T, np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError):
            gc.petz_recovery(ch, gc.thermal([1.0, 1.0]))

    def test_rejects_vacuum_reference(self):
        with pytest.raises(ValueError):
            gc.petz_recovery(rotation_channel(0.1), gc.vacuum())
