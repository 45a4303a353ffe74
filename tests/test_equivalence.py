import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausscoh as gc
from gausscoh import equivalence
from gausscoh.channels import rotation_channel
from gausscoh.core import block_parts, default_tol
from gausscoh.equivalence import rotation
from gausscoh.sampling import (
    RandomStateRecipe,
    equivalent_pair,
    perturbed_pair,
    random_incoherent_unitary,
    random_state,
)


def test_decide_solves_no_spectrum(monkeypatch):
    # both states carry their spectra from construction; stage 3 reads them
    rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=3, seed=2))
    _, other = perturbed_pair(RandomStateRecipe(modes=3, seed=2))

    def no_solve(*args, **kwargs):
        raise AssertionError("an eigenproblem was solved")

    monkeypatch.setattr(np.linalg, "eigvals", no_solve)
    assert isinstance(gc.decide_equivalence(rho, sigma), gc.Equivalent)
    assert gc.decide_equivalence(rho, other).witness == "symplectic spectrum"


def _accept(rho):
    """The oracle's default acceptance threshold for a pair starting at rho."""
    return equivalence.RESIDUAL_TOL_REL * max(1.0, np.linalg.norm(rho.cov))


class TestIncoherentUnitary:
    def test_matrix_is_orthogonal_symplectic(self):
        u = gc.IncoherentUnitary(perm=(2, 0, 1), angles=(0.3, -1.1, 2.5)).matrix()
        np.testing.assert_allclose(u @ u.T, np.eye(6), atol=1e-14)
        omega = gc.symplectic_form(3)
        np.testing.assert_allclose(u @ omega @ u.T, omega, atol=1e-14)

    def test_blocks_have_unit_determinant(self):
        u = gc.IncoherentUnitary(perm=(1, 0), angles=(0.4, 0.9))
        for i, target in enumerate(u.perm):
            block = u.matrix()[2 * target : 2 * target + 2, 2 * i : 2 * i + 2]
            assert np.linalg.det(block) == pytest.approx(1.0)

    def test_inverse(self):
        u = gc.IncoherentUnitary(perm=(2, 0, 1), angles=(0.3, -1.1, 2.5))
        np.testing.assert_allclose(
            u.inverse().matrix() @ u.matrix(), np.eye(6), atol=1e-14
        )

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            gc.IncoherentUnitary(perm=(0, 0), angles=(0.0, 0.0))


class TestApplyIncoherentUnitary:
    def test_identity(self):
        state = random_state(RandomStateRecipe(modes=2, seed=0))
        out = gc.apply_incoherent_unitary(
            gc.IncoherentUnitary(perm=(0, 1), angles=(0.0, 0.0)), state
        )
        np.testing.assert_allclose(out.cov, state.cov, atol=1e-14)

    def test_quarter_rotation_on_coherent(self):
        out = gc.apply_incoherent_unitary(
            gc.IncoherentUnitary(perm=(0,), angles=(np.pi / 2,)), gc.coherent(1.0)
        )
        np.testing.assert_allclose(out.mean, [0.0, -2.0], atol=1e-14)
        np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-14)

    def test_swap_exchanges_modes(self):
        state = gc.two_mode_standard_form(2.0, 3.0, 0.8, -0.5)
        out = gc.apply_incoherent_unitary(
            gc.IncoherentUnitary(perm=(1, 0), angles=(0.0, 0.0)), state
        )
        np.testing.assert_allclose(out.mode_cov(0), state.mode_cov(1), atol=1e-14)
        np.testing.assert_allclose(out.mode_cov(1), state.mode_cov(0), atol=1e-14)
        np.testing.assert_allclose(
            out.cross_cov(0, 1), state.cross_cov(1, 0), atol=1e-14
        )

    def test_preserves_coherence(self):
        state = random_state(RandomStateRecipe(modes=3, seed=4))
        unitary = random_incoherent_unitary(3, np.random.default_rng(4))
        out = gc.apply_incoherent_unitary(unitary, state)
        assert gc.relative_entropy_coherence(out).c_rel_ent == pytest.approx(
            gc.relative_entropy_coherence(state).c_rel_ent, abs=1e-9
        )


class TestCheckHypothesis:
    def test_correlated_standard_form_ok(self):
        state = gc.two_mode_standard_form(2.0, 2.0, 0.5, 0.5)
        assert gc.check_hypothesis(state) is None

    def test_block_diagonal_two_mode_violates(self):
        cov = np.diag([2.0, 2.0, 3.0, 3.0])
        state = gc.validate_state(cov, np.array([1.0, 0.0, 0.0, 0.0]))
        violation = gc.check_hypothesis(state)
        assert violation is not None
        assert violation.mode == 0

    def test_one_mode_squeezed_ok(self):
        assert gc.check_hypothesis(gc.displaced_squeezed(0.0, 0.6)) is None

    def test_one_mode_thermal_violates(self):
        assert gc.check_hypothesis(gc.thermal([1.0])) is not None


class TestDecideEquivalence:
    def test_planted_two_mode(self):
        state = random_state(RandomStateRecipe(modes=2, seed=11))
        planted = gc.IncoherentUnitary(perm=(1, 0), angles=(np.pi / 3, np.pi / 7))
        sigma = gc.apply_incoherent_unitary(planted, state)
        verdict = gc.decide_equivalence(state, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert verdict.residual <= 1e-10
        check = gc.apply_incoherent_unitary(verdict.certificate, state)
        assert np.linalg.norm(check.cov - sigma.cov) <= 1e-8

    def test_different_spectra_not_equivalent(self):
        rho = gc.two_mode_standard_form(2.0, 2.0, 1.0, 1.0)
        sigma = gc.two_mode_standard_form(2.5, 2.5, 1.0, 1.0)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.NotEquivalent)
        assert verdict.witness == "symplectic spectrum"

    def test_displaced_squeezed_phase_criterion(self):
        # gamma' - gamma = pi/2 and theta' - theta = pi satisfy the
        # one-mode phase-matching criterion
        rho = gc.displaced_squeezed(1.0, 0.5)
        sigma = gc.displaced_squeezed(1.0j, 0.5 * np.exp(1j * np.pi))
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)

    def test_coherent_vs_thermal(self):
        verdict = gc.decide_equivalence(gc.coherent(1.0), gc.thermal([1.0]))
        assert isinstance(verdict, gc.NotEquivalent)
        assert verdict.witness == "coherence mismatch"

    def test_all_incoherent(self):
        verdict = gc.decide_equivalence(gc.thermal([0.5, 1.0]), gc.thermal([2.0, 0.1]))
        assert isinstance(verdict, gc.AllIncoherent)

    def test_hypothesis_violated(self):
        cov = np.diag([2.0, 2.0, 3.0, 3.0])
        rho = gc.validate_state(cov, np.array([1.0, 0.0, 0.0, 0.0]))
        sigma = random_state(RandomStateRecipe(modes=2, seed=1))
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.HypothesisViolated)

    @pytest.mark.parametrize("seed", range(15))
    def test_planted_pairs_recovered(self, seed):
        m = 2 + seed % 4
        rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=m, seed=seed))
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert verdict.residual <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_perturbed_pairs_rejected(self, seed):
        m = 2 + seed % 3
        rho, sigma = perturbed_pair(RandomStateRecipe(modes=m, seed=seed))
        assert isinstance(gc.decide_equivalence(rho, sigma), gc.NotEquivalent)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=3, seed=seed))
        fwd = gc.decide_equivalence(rho, sigma)
        bwd = gc.decide_equivalence(sigma, rho)
        assert isinstance(fwd, gc.Equivalent) and isinstance(bwd, gc.Equivalent)
        # certificates are mutually inverse up to residual slack
        u = fwd.certificate.matrix() @ bwd.certificate.matrix()
        back = gc.apply_incoherent_unitary(bwd.certificate, sigma)
        assert np.linalg.norm(back.cov - rho.cov) <= 2e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence_implies_equal_coherence(self, seed):
        rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=2, seed=seed))
        assert isinstance(gc.decide_equivalence(rho, sigma), gc.Equivalent)
        assert gc.relative_entropy_coherence(rho).c_rel_ent == pytest.approx(
            gc.relative_entropy_coherence(sigma).c_rel_ent, abs=1e-8
        )

    def test_free_angle_component_scan(self):
        # isotropic mode blocks, zero mean and a pure reflection-type cross
        # block fix no angle: the component has a true gauge freedom, and the
        # decider sets its free angle to zero
        r = 0.5
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        cov = np.array(
            [
                [c, 0.0, s, 0.0],
                [0.0, c, 0.0, -s],
                [s, 0.0, c, 0.0],
                [0.0, -s, 0.0, c],
            ]
        )
        rho = gc.validate_state(cov, np.zeros(4))
        planted = gc.IncoherentUnitary(perm=(0, 1), angles=(0.9, 0.9))
        sigma = gc.apply_incoherent_unitary(planted, rho)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert verdict.residual <= 1e-8


def _isotropic_ring(m):
    """a I + c C_m on every quadrature, C_m the m-cycle; physical as a - 2c > 1."""
    couplings = 3.0 * np.eye(m)
    for i in range(m):
        couplings[i, (i + 1) % m] = couplings[(i + 1) % m, i] = 0.45
    return np.kron(couplings, np.eye(2))


def _anchorless_state(m, kind, rng):
    """Isotropic local blocks, zero mean and random cross blocks of one kind."""
    cov = np.kron(np.diag(rng.uniform(2.5, 3.5, size=m)), np.eye(2))
    for i in range(m):
        for j in range(i + 1, m):
            c, phi = rng.uniform(0.2, 0.5), rng.uniform(0.0, 2.0 * np.pi)
            block = {
                "rotation": c * rotation(phi),
                "reflection": c * rotation(phi) @ np.diag([1.0, -1.0]),
                "general": rng.normal(0.0, 0.25, size=(2, 2)),
            }[kind]
            cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
            cov[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = block.T
    return gc.validate_state(cov, np.zeros(2 * m))


class TestSearch:
    """Inputs whose labels leave many targets, or whose angles no mean or
    local anisotropy fixes."""

    @pytest.mark.parametrize("seed", range(10))
    def test_isotropic_triangle_with_one_reflection(self, seed):
        # the cycle 0-1-2 holds an odd number of reflection-type blocks, so
        # the component's free angle is pinned (to one of two values) by the
        # last block closed; leaving it at zero fails
        cov = 3.0 * np.eye(6)
        for (i, j), block in {
            (0, 1): 0.3 * np.eye(2),
            (0, 2): 0.3 * np.eye(2),
            (1, 2): 0.3 * np.diag([1.0, -1.0]),
        }.items():
            cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
            cov[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = block.T
        rho = gc.validate_state(cov, np.zeros(6))
        planted = random_incoherent_unitary(3, np.random.default_rng(seed))
        sigma = gc.apply_incoherent_unitary(planted, rho)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert verdict.residual <= 1e-8

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("kind", ["rotation", "reflection", "general"])
    @pytest.mark.parametrize("planted", [True, False])
    def test_anchorless_agrees_with_oracle(self, m, kind, planted):
        rng = np.random.default_rng([m, len(kind), planted])
        rho = _anchorless_state(m, kind, rng)
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(m, rng), rho)
        if not planted:
            bump = np.zeros((2 * m, 2 * m))
            bump[0:2, 2:4] = rng.normal(0.0, 0.02, size=(2, 2))
            sigma = gc.validate_state(sigma.cov + bump + bump.T, sigma.mean)
        fast = gc.decide_equivalence(rho, sigma)
        slow = gc.brute_force_equivalence(rho, sigma)
        assert isinstance(fast, gc.Equivalent) == planted
        assert isinstance(slow, gc.Equivalent) == planted
        if not planted:
            assert slow.witness == "residual lower bound"
            assert slow.best_residual > _accept(rho)

    def test_weak_mean_fixes_free_angle(self):
        # a mean below the anchor scale but above the acceptance threshold is
        # the only part that moves with the component's free angle
        r = 0.5
        c, s = np.cosh(2 * r), np.sinh(2 * r)
        cov = np.array(
            [[c, 0.0, s, 0.0], [0.0, c, 0.0, -s], [s, 0.0, c, 0.0], [0.0, -s, 0.0, c]]
        )
        rho = gc.validate_state(cov, np.array([3e-7, 0.0, 0.0, 0.0]))
        planted = gc.IncoherentUnitary(perm=(0, 1), angles=(0.9, 0.4))
        sigma = gc.apply_incoherent_unitary(planted, rho)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert verdict.residual <= 1e-8

    @pytest.mark.parametrize("m", [8, 16])
    def test_planted_isotropic_ring(self, m):
        # every mode has the same labels; enumerating permutations is m!
        rho = gc.validate_state(_isotropic_ring(m), np.zeros(2 * m))
        planted = random_incoherent_unitary(m, np.random.default_rng(m))
        sigma = gc.apply_incoherent_unitary(planted, rho)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert verdict.residual <= 1e-8

    def test_displaced_ring_scrambled_phases(self):
        # equal |d_i| keep the spectrum and every label; only a dihedral
        # relabelling with one common rotation maps the ring onto itself,
        # and random phases admit none
        m = 8
        rng = np.random.default_rng(8)
        cov = _isotropic_ring(m)

        def mean(phases):
            return np.ravel(np.column_stack([np.cos(phases), np.sin(phases)]))

        rho = gc.validate_state(cov, mean(rng.uniform(0.0, 2.0 * np.pi, size=m)))
        other = gc.validate_state(cov, mean(rng.uniform(0.0, 2.0 * np.pi, size=m)))
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(m, rng), other)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.NotEquivalent)
        # the mean holonomies see the phase differences between neighbours
        assert verdict.witness == "mode fingerprints"

    def test_rotated_mean_exhausts_the_search(self):
        # a generic covariance pins the permutation, so the holonomies are
        # not consulted and the search rejects the rotated mode itself
        m = 6
        rho, _, planted = equivalent_pair(RandomStateRecipe(modes=m, seed=6))
        k = int(np.argmax(np.linalg.norm(rho.mean.reshape(m, 2), axis=1)))
        mean = rho.mean.copy()
        mean[2 * k : 2 * k + 2] = rotation(1.0) @ mean[2 * k : 2 * k + 2]
        other = gc.validate_state(rho.cov, mean)
        sigma = gc.apply_incoherent_unitary(planted, other)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.NotEquivalent)
        assert verdict.witness == "search exhausted"

    @pytest.mark.parametrize("m", [4, 8, 12])
    @pytest.mark.parametrize("radius", [0.01, 1.0, 30.0])
    def test_planted_displaced_ring_is_refined(self, m, radius, monkeypatch):
        calls, real = [], equivalence._holonomies

        def spy(p, q, d):
            calls.append(d.shape)
            return real(p, q, d)

        monkeypatch.setattr(equivalence, "_holonomies", spy)
        rng = np.random.default_rng([m, int(100 * radius)])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
        mean = radius * np.ravel(np.column_stack([np.cos(phases), np.sin(phases)]))
        rho = gc.validate_state(_isotropic_ring(m), mean)
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(m, rng), rho)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert verdict.residual <= _accept(rho)
        assert calls == [(2, m)]


def _holonomy_rows(rho, cov, mean):
    """The holonomy rows of rho and of (cov, mean), and the bands of the search."""
    p, q = block_parts(np.stack([rho.cov, cov]))
    d = np.stack([rho.mean, mean]).view(complex)
    norm_v = max(1.0, np.linalg.norm(rho.cov))
    band = max(default_tol(rho.cov), 1e-6 * norm_v)
    norm_d = max(1.0, np.linalg.norm(rho.mean))
    h_band = equivalence._holonomy_band(band, norm_v, norm_d)
    return equivalence._holonomies(p, q, d), h_band, band


class TestHolonomies:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        mean_scale=st.sampled_from([0.01, 1.0, 30.0, 300.0]),
    )
    def test_rows_move_with_the_permutation(self, m, seed, mean_scale):
        recipe = RandomStateRecipe(modes=m, seed=seed, mean_scale=mean_scale)
        rho, sigma, planted = equivalent_pair(recipe)
        (hol_r, hol_s), h_band, _ = _holonomy_rows(rho, sigma.cov, sigma.mean)
        assert np.all(np.abs(hol_s[list(planted.perm)] - hol_r) <= h_band)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        mean_scale=st.sampled_from([0.01, 1.0, 30.0, 300.0]),
    )
    def test_band_bounds_a_move_of_v_and_d(self, m, seed, mean_scale):
        rho = random_state(RandomStateRecipe(modes=m, seed=seed, mean_scale=mean_scale))
        rng = np.random.default_rng(seed)
        _, h_band, band = _holonomy_rows(rho, rho.cov, rho.mean)
        # a symmetric move of V and a move of d, each of norm exactly band
        e = rng.normal(size=(2 * m, 2 * m))
        e = band * (e + e.T) / np.linalg.norm(e + e.T)
        delta = rng.normal(size=2 * m)
        delta *= band / np.linalg.norm(delta)
        (hol_r, hol_m), _, _ = _holonomy_rows(rho, rho.cov + e, rho.mean + delta)
        assert np.all(np.abs(hol_m - hol_r) <= h_band)


class TestBruteForce:
    def test_matches_on_planted_pair(self):
        rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=2, seed=21))
        verdict = gc.brute_force_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)

    def test_matches_on_perturbed_pair(self):
        rho, sigma = perturbed_pair(RandomStateRecipe(modes=2, seed=22))
        verdict = gc.brute_force_equivalence(rho, sigma)
        assert isinstance(verdict, gc.NotEquivalent)
        assert verdict.witness == "residual lower bound"
        assert verdict.best_residual > _accept(rho)

    def test_box_budget_ends_in_search_exhausted(self, monkeypatch):
        monkeypatch.setattr(equivalence, "_BOX_BUDGET", 1)
        rho, sigma = perturbed_pair(RandomStateRecipe(modes=2, seed=22))
        verdict = gc.brute_force_equivalence(rho, sigma)
        assert isinstance(verdict, gc.NotEquivalent)
        assert verdict.witness == "search exhausted"
        assert verdict.best_residual > _accept(rho)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        planted=st.booleans(),
        log_half_width=st.floats(-6.0, np.log10(np.pi)),
    )
    def test_box_bound_holds_inside_the_box(self, m, seed, planted, log_half_width):
        recipe = RandomStateRecipe(modes=m, seed=seed)
        rng = np.random.default_rng(seed)
        half_width = 10.0**log_half_width
        if planted:
            # a box around the planted unitary holds a point of zero residual
            rho, sigma, unitary = equivalent_pair(recipe)
            perm = unitary.perm
            centre = unitary.angles + rng.uniform(-half_width, half_width, size=(1, m))
        else:
            rho = random_state(recipe)
            sigma = random_state(RandomStateRecipe(modes=m, seed=seed + 1))
            perm = tuple(int(i) for i in rng.permutation(m))
            centre = rng.uniform(0.0, 2.0 * np.pi, size=(1, m))
        w, e = equivalence._targets(sigma, perm)
        _, bound = equivalence._box_bounds(rho, w, e, centre, half_width)
        # the box's corners and random points inside it
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        offsets = np.vstack([corners, rng.uniform(-1.0, 1.0, size=(32, m))])
        slack = 1e-12 * max(1.0, np.linalg.norm(rho.cov))
        for theta in centre + half_width * offsets:
            residual = equivalence._residual(rho, sigma, perm, theta)
            assert residual >= bound[0] - slack

    def test_one_mode_rotated_squeezed(self):
        rho = gc.displaced_squeezed(0.0, 0.6)
        planted = gc.IncoherentUnitary(perm=(0,), angles=(0.3,))
        sigma = gc.apply_incoherent_unitary(planted, rho)
        verdict = gc.brute_force_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        # angle recovered modulo pi (squeezed vacuum has a two-fold symmetry)
        angle = verdict.certificate.angles[0] % np.pi
        assert min(abs(angle - 0.3), abs(angle - 0.3 - np.pi)) < 1e-6

    def test_rejects_large_systems(self):
        rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=4, seed=0))
        with pytest.raises(ValueError):
            gc.brute_force_equivalence(rho, sigma)

    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_with_decider(self, seed):
        m = 1 + seed % 3
        recipe = RandomStateRecipe(modes=m, seed=seed + 100)
        if seed % 2:
            rho, sigma, _ = equivalent_pair(recipe)
        else:
            rho, sigma = perturbed_pair(recipe)
        fast = gc.decide_equivalence(rho, sigma)
        slow = gc.brute_force_equivalence(rho, sigma)
        assert isinstance(fast, gc.Equivalent) == isinstance(slow, gc.Equivalent)


class TestIsFrozen:
    def test_unitary_channel_freezes(self):
        report = gc.is_frozen(gc.coherent(1.0), rotation_channel(0.8))
        assert report.frozen
        assert report.coherence_in == pytest.approx(report.coherence_out, abs=1e-9)
        assert report.certificate is not None

    def test_attenuator_thaws(self):
        ch = gc.validate_channel(0.5 * np.eye(2), 0.75 * np.eye(2), np.zeros(2))
        report = gc.is_frozen(gc.coherent(1.0), ch)
        assert not report.frozen
        assert report.coherence_out < report.coherence_in

    def test_rejects_non_strict_channel(self):
        t = 1 / np.sqrt(2)
        T = np.zeros((4, 4))
        T[:2, :2] = t * np.eye(2)
        T[:2, 2:] = t * np.eye(2)
        N = np.kron(np.diag([0.1, 1.0]), np.eye(2))
        ch = gc.validate_channel(T, N, np.zeros(4))
        with pytest.raises(ValueError):
            gc.is_frozen(random_state(RandomStateRecipe(modes=2, seed=0)), ch)

    @pytest.mark.parametrize("seed", range(10))
    def test_frozen_iff_equivalent(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(RandomStateRecipe(modes=2, seed=seed))
        channel = gc.random_igo(2, strict=True, rng=rng, unitary=bool(seed % 2))
        report = gc.is_frozen(state, channel)
        verdict = gc.decide_equivalence(state, gc.apply_channel(channel, state))
        assert report.frozen == isinstance(verdict, gc.Equivalent)
