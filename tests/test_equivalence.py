import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausscoh as gc
from gausscoh import core, equivalence
from gausscoh.channels import rotation_channel
from gausscoh.core import DEFAULT_TOL_REL, block_norms, block_parts, isotropic_split, rotation
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

    @settings(max_examples=200, deadline=None)
    @given(
        perm_angles=st.integers(1, 16).flatmap(
            lambda m: st.tuples(
                st.permutations(range(m)),
                st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m),
            )
        )
    )
    def test_matrix_matches_block_by_block(self, perm_angles):
        perm, angles = perm_angles
        m = len(perm)
        want = np.zeros((2 * m, 2 * m))
        for i, (target, angle) in enumerate(zip(perm, angles)):
            want[2 * target : 2 * target + 2, 2 * i : 2 * i + 2] = rotation(angle)
        got = gc.IncoherentUnitary(perm=tuple(perm), angles=tuple(angles)).matrix()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        lonely=st.floats(0.0, 0.5),
        displaced=st.booleans(),
    )
    def test_cross_bound_answers_as_the_exact_tables(self, m, seed, lonely, displaced):
        # cross entries and anisotropies in [t/4, 4t]: the bound leaves many
        # states open, and then the exact tables must decide as they always did
        state = _straddling_state(m, np.random.default_rng(seed), lonely, displaced)
        t = DEFAULT_TOL_REL * state.scale
        cross = 1.0 - np.kron(np.eye(m), np.ones((2, 2)))
        want_bound = (np.abs(state.cov) * cross).reshape(m, 2, m, 2).max(axis=(1, 2, 3))
        assert np.array_equal(state.cross_bound, want_bound)
        assert state.cross_bound is state.cross_bound

        # the definitions from the exact tables alone
        lam, rest = isotropic_split(state.cov)
        thermal = np.linalg.norm(state.mean) <= t and np.max(rest) <= t
        want_occupations = [max((x - 1.0) / 2.0, 0.0) for x in lam] if thermal else None
        norms = block_norms(state.cov)
        np.fill_diagonal(norms, 0.0)
        if m == 1:
            lonely_modes = [0] if thermal else []
        else:
            lonely_modes = np.flatnonzero(norms.max(axis=1) <= t)
        assert gc.is_incoherent_state(state) == want_occupations
        violation = gc.check_hypothesis(state)
        if len(lonely_modes) == 0:
            assert violation is None
        else:
            assert violation is not None and violation.mode == lonely_modes[0]

    def test_decide_takes_no_exact_table_on_correlated_states(self, monkeypatch):
        calls = []

        def spy(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted

        monkeypatch.setattr(equivalence, "block_norms", spy("block_norms", block_norms))
        monkeypatch.setattr(core, "isotropic_split", spy("isotropic_split", isotropic_split))
        rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=6, seed=3, mean_scale=1.0))
        ring = gc.validate_state(_isotropic_ring(6), np.zeros(12))
        planted = random_incoherent_unitary(6, np.random.default_rng(3))
        image = gc.apply_incoherent_unitary(planted, ring)
        for pair in ((rho, sigma), (ring, image)):
            assert isinstance(gc.decide_equivalence(*pair), gc.Equivalent)
        assert calls == []

        # mode 2's cross entries all sit at 0.9 t, its block's norm at 1.8 t
        cov = np.kron(np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 2.0]]), np.eye(2))
        t = DEFAULT_TOL_REL * np.linalg.norm(cov)
        cov[0:2, 4:6] = cov[4:6, 0:2] = 0.9 * t
        state = gc.validate_state(cov, np.zeros(6))
        assert gc.is_incoherent_state(state) is None
        assert calls == []
        assert gc.check_hypothesis(state) is None
        assert calls == ["block_norms"]


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


def _straddling_state(m, rng, lonely, displaced):
    """Thermal-like modes whose cross entries and anisotropies lie in [t/4, 4t].

    About half the cross blocks hold one entry alone. Each mode is left
    without cross blocks with probability ``lonely``; the mean is zero, or
    random when ``displaced``.
    """
    occupations = rng.uniform(1.5, 4.0, size=m)
    t = DEFAULT_TOL_REL * np.linalg.norm(np.repeat(occupations, 2))
    cov = np.kron(np.diag(occupations), np.eye(2))
    for i in range(m):
        if rng.random() < 0.5:
            cov[2 * i, 2 * i] += rng.uniform(0.25, 4.0) * t
    alone = rng.random(m) < lonely
    for i in range(m):
        for j in range(i + 1, m):
            if not (alone[i] or alone[j]):
                size = rng.uniform(0.25, 4.0) * t
                if rng.random() < 0.5:
                    block = size * rng.uniform(-1.0, 1.0, size=(2, 2))
                else:
                    # one entry alone: the block's norm is the entry's modulus
                    block = np.zeros((2, 2))
                    block[tuple(rng.integers(2, size=2))] = size * rng.choice([-1.0, 1.0])
                cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
                cov[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = block.T
    mean = rng.normal(size=2 * m) if displaced else np.zeros(2 * m)
    return gc.validate_state(cov, mean)


def _isotropic_ring(m):
    """a I + c C_m on every quadrature, C_m the m-cycle; physical as a - 2c > 1."""
    couplings = 3.0 * np.eye(m)
    for i in range(m):
        couplings[i, (i + 1) % m] = couplings[(i + 1) % m, i] = 0.45
    return np.kron(couplings, np.eye(2))


def _displaced_ring_negative(m, seed):
    """A ring with equal |d_i| and a planted image of other mean phases."""
    rng = np.random.default_rng(seed)

    def state(phases):
        mean = np.ravel(np.column_stack([np.cos(phases), np.sin(phases)]))
        return gc.validate_state(_isotropic_ring(m), mean)

    rho, other = (state(rng.uniform(0.0, 2.0 * np.pi, size=m)) for _ in range(2))
    return rho, gc.apply_incoherent_unitary(random_incoherent_unitary(m, rng), other)


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


def _isotropic_path(m):
    """a I plus distinct couplings c_i on the path edges (i, i+1), on every quadrature."""
    couplings = 3.0 * np.eye(m)
    for i in range(m - 1):
        couplings[i, i + 1] = couplings[i + 1, i] = 0.2 + 0.05 * i
    return np.kron(couplings, np.eye(2))


def _zero_mean_state(m, shape, kind, weak_mean, rng):
    """An isotropic state with cross blocks on a path, a ring or two paths.

    ``kind`` "rotation" gives blocks c I (np.kron(c, I_2) on the couplings),
    "mixed" c I or c Z at random, so that a ring with an odd number of
    reflections fixes its w, "general" random 2x2 blocks; ``weak_mean`` is
    put on mode 0's x.
    """
    cov = np.kron(np.diag(rng.uniform(2.5, 3.5, size=m)), np.eye(2))
    edges = [(i, i + 1) for i in range(m - 1)]
    if shape == "ring" and m > 2:
        edges.append((m - 1, 0))
    if shape == "two paths" and m > 3:
        edges.remove((m // 2 - 1, m // 2))
    for i, j in edges:
        if kind != "general":
            flip = kind == "mixed" and rng.random() < 0.5
            block = rng.uniform(0.2, 0.5) * np.diag([1.0, -1.0 if flip else 1.0])
        else:
            block = rng.normal(0.0, 0.25, size=(2, 2))
        cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
        cov[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = block.T
    mean = np.zeros(2 * m)
    mean[0] = weak_mean
    return gc.validate_state(cov, mean)


def _bfs_full_scan(strong):
    """The BFS of ``equivalence._bfs_order`` that scans the row of every queued mode."""
    order, parent = [], {}
    for root in range(len(strong)):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for i in queue:
            order.append(i)
            for j, edge in enumerate(strong[i]):
                if edge and j not in parent:
                    parent[j] = i
                    queue.append(j)
    return order, parent


def _generic_pair(m, seed, mean_scale, rotated=False, noise=0.0):
    """A planted generic pair; ``rotated`` turns rho's largest mean by 1 rad
    before the unitary (a negative), and ``noise`` is added to the image."""
    rho, sigma, planted = equivalent_pair(RandomStateRecipe(m, seed=seed, mean_scale=mean_scale))
    if rotated:
        i = int(np.argmax(np.linalg.norm(rho.mean.reshape(m, 2), axis=1)))
        mean = rho.mean.copy()
        mean[2 * i : 2 * i + 2] = rotation(1.0) @ mean[2 * i : 2 * i + 2]
        sigma = gc.apply_incoherent_unitary(planted, gc.validate_state(rho.cov, mean))
    rng = np.random.default_rng(seed)
    e = rng.normal(size=sigma.cov.shape)
    image = gc.validate_state(
        sigma.cov + noise * (e + e.T) / 2, sigma.mean + noise * rng.normal(size=2 * m)
    )
    return rho, image


def _settle_spy(monkeypatch):
    """Make ``equivalence._settle`` record what it returns, in a list."""
    returned, real = [], equivalence._settle

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(equivalence, "_settle", spy)
    return returned


class TestSearch:
    """Inputs whose labels leave many targets, or whose angles no mean or
    local anisotropy fixes, and the closed form for pinned permutations."""

    def test_a_mean_gives_no_angle_while_w_is_free(self):
        # the root, mode 0, has no mean and an isotropic block, so w is still
        # free at its neighbours; a mean larger than the tree edge gives its
        # mode the angle only once w is fixed
        couplings = np.array([[3.0, 0.45, 0.0], [0.45, 3.0, 0.45], [0.0, 0.45, 3.0]])
        rng = np.random.default_rng(1)
        for m in (2, 3):
            mean = np.zeros(2 * m)
            mean[-2:] = 5.0, 1.0
            rho = gc.validate_state(np.kron(couplings[:m, :m], np.eye(2)), mean)
            for _ in range(3):
                sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(m, rng), rho)
                assert isinstance(gc.decide_equivalence(rho, sigma), gc.Equivalent)

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
        verdict = gc.decide_equivalence(*_displaced_ring_negative(8, 8))
        assert isinstance(verdict, gc.NotEquivalent)
        # x^t V x sees the phase differences between neighbours
        assert verdict.witness == "mode fingerprints"

    def test_rotated_mean_exhausts_the_search(self):
        # with means of about 0.01, rotating one keeps x^t V x within its band;
        # a generic covariance pins the permutation, so the holonomies are not
        # consulted and the rotated mode's own mean rejects the one leaf
        rho, sigma = _generic_pair(6, 6, 0.01, rotated=True)
        _, h_band = equivalence._bands(rho, _accept(rho))
        quadratic = equivalence._mean_quadratic
        assert abs(quadratic(rho) - quadratic(sigma)) <= h_band
        verdict = gc.decide_equivalence(rho, sigma)
        assert verdict == gc.NotEquivalent(witness="search exhausted", best_residual=None)

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

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
    )
    def test_bfs_order_matches_a_full_scan(self, m, seed, density):
        upper = np.triu(np.random.default_rng(seed).random((m, m)) < density, 1)
        strong = (upper | upper.T).tolist()
        assert equivalence._bfs_order(strong) == _bfs_full_scan(strong)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        mean_scale=st.sampled_from([0.01, 1.0, 30.0, 300.0]),
        # image noise, and tol relative to max(1, ||V_rho||_F) (None: default)
        noise_rel=st.sampled_from([(0.0, None), (1e-9, 1e-6), (1e-7, None), (1e-5, 1e-3)]),
        rotated=st.booleans(),
    )
    def test_settling_matches_the_search(self, m, seed, mean_scale, noise_rel, rotated):
        noise, rel = noise_rel
        rho, sigma = _generic_pair(m, seed, mean_scale, rotated, noise)
        tol = None if rel is None else rel * max(1.0, float(np.linalg.norm(rho.cov)))
        settled = gc.decide_equivalence(rho, sigma, tol=tol)
        with mock.patch.object(equivalence, "_settle", lambda *args: None):
            searched = gc.decide_equivalence(rho, sigma, tol=tol)
        # verdict, certificate, residual and best residual, bit for bit
        assert repr(settled) == repr(searched)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["path", "ring", "two paths"]),
        kind=st.sampled_from(["rotation", "mixed", "general"]),
        weak_mean=st.booleans(),
        noise_rel=st.sampled_from([(0.0, None), (1e-9, 1e-6), (1e-7, None), (1e-5, 1e-3)]),
        planted=st.booleans(),
    )
    def test_settling_matches_the_search_without_a_mean(
        self, m, seed, shape, kind, weak_mean, noise_rel, planted
    ):
        # zero-mean isotropic states: no root has a part above the anchor, so
        # w is fixed mid-walk by a reflection part, by the weak mean, or never
        noise, rel = noise_rel
        rng = np.random.default_rng(seed)
        rho = _zero_mean_state(m, shape, kind, 3e-7 if weak_mean else 0.0, rng)
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(m, rng), rho)
        e = rng.normal(size=sigma.cov.shape)
        image = sigma.cov + noise * (e + e.T) / 2
        if not planted:
            image[0:2, 2:4] += rng.normal(0.0, 1e-6, size=(2, 2))
            image[2:4, 0:2] = image[0:2, 2:4].T
        sigma = gc.validate_state(image, sigma.mean)
        tol = None if rel is None else rel * rho.scale
        settled = gc.decide_equivalence(rho, sigma, tol=tol)
        with mock.patch.object(equivalence, "_settle", lambda *args: None):
            searched = gc.decide_equivalence(rho, sigma, tol=tol)
        assert repr(settled) == repr(searched)

    def test_settle_decides_generic_pairs_and_zero_mean_paths(self, monkeypatch):
        returned = _settle_spy(monkeypatch)
        planted = gc.decide_equivalence(*_generic_pair(6, 6, 1.0))
        # a mean small enough to keep x^t V x within its band reaches the leaf
        rotated = gc.decide_equivalence(*_generic_pair(6, 6, 0.01, rotated=True))
        assert isinstance(planted, gc.Equivalent) and returned[0] == planted
        assert rotated.witness == "search exhausted" and returned[1] == rotated
        # distinct couplings pin the path, and no part fixes w: an exact gauge,
        # so w stays 1 and one residual decides
        rho = gc.validate_state(_isotropic_path(8), np.zeros(16))
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(8, np.random.default_rng(8)), rho)
        path = gc.decide_equivalence(rho, sigma)
        assert isinstance(path, gc.Equivalent) and returned[2] == path
        # two components, each with a squeezed mode whose reflection part keeps
        # two values of w: the search takes the pair
        cov = _isotropic_path(6)
        cov[6:8, 4:6] = cov[4:6, 6:8] = 0.0
        cov[0:2, 0:2] = np.diag([3.2, 2.8])
        cov[6:8, 6:8] = np.diag([3.3, 2.7])
        rho = gc.validate_state(cov, np.zeros(12))
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(6, np.random.default_rng(6)), rho)
        assert isinstance(gc.decide_equivalence(rho, sigma), gc.Equivalent)
        assert returned[3:] == [None]

    def test_a_settled_pair_takes_one_matrix_norm(self, monkeypatch):
        # every tolerance reads state.scale: only the leaf residual's ||.||_F is left
        rho, sigma = _generic_pair(6, 6, 1.0)
        ndims, real = [], np.linalg.norm

        def spy(x, *args, **kwargs):
            ndims.append(np.ndim(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        returned = _settle_spy(monkeypatch)
        assert isinstance(gc.decide_equivalence(rho, sigma), gc.Equivalent)
        assert returned[0] is not None
        assert ndims.count(2) == 1

    def test_cross_block_negative_reaches_no_leaf(self, monkeypatch):
        # only the block between the images of modes 3 and 4 moves, by 1e-6; on
        # a dense state the BFS tree is a star from mode 0, so that block is no
        # tree edge and the search rejects it when it places mode 4
        rho, sigma, planted = equivalent_pair(RandomStateRecipe(modes=5, seed=0))
        a, b = planted.perm[3], planted.perm[4]
        cov = sigma.cov.copy()
        block = cov[2 * a : 2 * a + 2, 2 * b : 2 * b + 2]
        block = rotation(1e-6 / np.linalg.norm(block)) @ block
        cov[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = block
        cov[2 * b : 2 * b + 2, 2 * a : 2 * a + 2] = block.T
        other = gc.validate_state(cov, sigma.mean)
        # past the spectrum stage, below the moved block
        tol = 1.5 * float(np.max(np.abs(rho.spectrum - other.spectrum)))
        assert tol < equivalence._residual(rho, other, planted)
        returned = _settle_spy(monkeypatch)
        verdict = gc.decide_equivalence(rho, other, tol=tol)
        assert verdict == gc.NotEquivalent(witness="search exhausted", best_residual=None)
        assert returned == [verdict]


def _moved(rho, r, rng):
    """rho's V and d, each moved by a random step of norm exactly r (V's symmetric)."""
    e = rng.normal(size=rho.cov.shape)
    delta = rng.normal(size=rho.mean.shape)
    return (
        rho.cov + r * (e + e.T) / np.linalg.norm(e + e.T),
        rho.mean + r * delta / np.linalg.norm(delta),
    )


def _holonomy_rows(rho, cov, mean):
    """The holonomy rows of rho and of (cov, mean), and the decider's bands."""
    p, q = block_parts(np.stack([rho.cov, cov]))
    d = np.stack([rho.mean, mean]).view(complex)
    band, h_band = equivalence._bands(rho, _accept(rho))
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
        (hol_r, hol_m), _, _ = _holonomy_rows(rho, *_moved(rho, band, rng))
        assert np.all(np.abs(hol_m - hol_r) <= h_band)


def _mode_quadratics(state):
    """Each mode's term x_i^t (V x)_i of x^t V x, x the state's mean."""
    return (state.mean * (state.cov @ state.mean)).reshape(-1, 2).sum(axis=1)


class TestMeanQuadratic:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        mean_scale=st.sampled_from([0.01, 1.0, 30.0, 300.0]),
    )
    def test_band_bounds_a_move_of_v_and_d(self, m, seed, mean_scale):
        # r (2 N D + N r + (D + r)^2) <= h_band / 3 at r = band: a pair that a
        # unitary meets within accept is never rejected by x^t V x
        rho = random_state(RandomStateRecipe(modes=m, seed=seed, mean_scale=mean_scale))
        band, h_band = equivalence._bands(rho, _accept(rho))
        cov, mean = _moved(rho, band, np.random.default_rng(seed))
        moved = equivalence._mean_quadratic(SimpleNamespace(cov=cov, mean=mean))
        assert abs(moved - equivalence._mean_quadratic(rho)) <= h_band / 3.0

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        mean_scale=st.sampled_from([0.01, 1.0, 30.0, 300.0]),
    )
    def test_rows_move_with_the_permutation(self, m, seed, mean_scale):
        recipe = RandomStateRecipe(modes=m, seed=seed, mean_scale=mean_scale)
        rho, sigma, planted = equivalent_pair(recipe)
        c_r, c_s = _mode_quadratics(rho), _mode_quadratics(sigma)
        rounding = 1e-13 * rho.scale * max(1.0, float(rho.mean @ rho.mean))
        np.testing.assert_allclose(c_s[list(planted.perm)], c_r, rtol=0.0, atol=rounding)
        assert equivalence._mean_quadratic(rho) == pytest.approx(c_r.sum(), rel=0.0, abs=rounding)

    @pytest.mark.parametrize("case", ["displaced ring", "mean-rotated"])
    def test_negatives_never_reach_the_labels(self, case, monkeypatch):
        if case == "displaced ring":
            rho, sigma = _displaced_ring_negative(8, 8)
        else:
            # at mean scale 1 the rotated mode's x_i^t (V x)_i moves x^t V x
            # out of its band
            rho, sigma = _generic_pair(6, 6, 1.0, rotated=True)

        def labels_taken(cov):
            raise AssertionError("block_parts was called")

        monkeypatch.setattr(equivalence, "block_parts", labels_taken)
        assert gc.decide_equivalence(rho, sigma) == gc.NotEquivalent(witness="mode fingerprints")

    def test_zero_mean_pairs_skip_the_check(self, monkeypatch):
        def evaluated(state):
            raise AssertionError("x^t V x was evaluated")

        monkeypatch.setattr(equivalence, "_mean_quadratic", evaluated)
        rng = np.random.default_rng(5)
        for cov in (_isotropic_ring(6), _isotropic_path(8)):
            rho = gc.validate_state(cov, np.zeros(cov.shape[0]))
            sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(rho.modes, rng), rho)
            assert isinstance(gc.decide_equivalence(rho, sigma), gc.Equivalent)
        # a beam splitter on modes 0 and 1 keeps the spectrum and moves their labels
        rho = gc.validate_state(_isotropic_ring(5), np.zeros(10))
        mixer = np.eye(10)
        mixer[0:4, 0:4] = np.kron(rotation(0.4), np.eye(2))
        sigma = gc.validate_state(mixer @ rho.cov @ mixer.T, rho.mean)
        assert gc.decide_equivalence(rho, sigma) == gc.NotEquivalent(witness="mode fingerprints")


def noisy_planted_pair(k, noise, rel):
    """Planted pair k of the tolerance sweep, Gaussian noise on its image, and tol.

    m = 1 + k mod 16 and mean scale (0, 1, 30, 300)[(k div 16) mod 4]; the
    image gets symmetric noise on V and noise on d (rng seed k), and
    tol = rel * max(1, ||V_rho||_F). The planted unitary must stay within tol.
    """
    m, scale = 1 + k % 16, (0.0, 1.0, 30.0, 300.0)[(k // 16) % 4]
    rho, sigma, planted = equivalent_pair(RandomStateRecipe(m, seed=5000 + k, mean_scale=scale))
    rng = np.random.default_rng(k)
    e = rng.normal(size=sigma.cov.shape)
    image = gc.validate_state(
        sigma.cov + noise * (e + e.T) / 2, sigma.mean + noise * rng.normal(size=2 * m)
    )
    tol = rel * max(1.0, float(np.linalg.norm(rho.cov)))
    assert equivalence._residual(rho, image, planted) <= tol
    return rho, image, tol


class TestToleranceContract:
    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    @pytest.mark.parametrize("decide", [gc.decide_equivalence, gc.brute_force_equivalence])
    def test_bad_tolerance_rejected(self, decide, tol):
        # a NaN tol rejected a state against itself and gave the oracle a
        # false proof; an infinite one accepted any pair of equal spectra
        rho, sigma = perturbed_pair(RandomStateRecipe(modes=2, seed=22))
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            decide(rho, sigma, tol=tol)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        mean_scale=st.sampled_from([0.01, 1.0, 30.0, 300.0]),
        r=st.sampled_from([1e-9, 1e-6, 1e-3, 1.0]),
    )
    def test_a_move_by_r_moves_no_label_more(self, m, seed, mean_scale, r):
        # why a label band of at least accept rejects no unitary within accept
        rho = random_state(RandomStateRecipe(modes=m, seed=seed, mean_scale=mean_scale))
        cov, mean = _moved(rho, r, np.random.default_rng(seed))
        p, q = block_parts(np.stack([rho.cov, cov]))
        d = np.stack([rho.mean, mean]).view(complex)
        lab_r, lab_moved = equivalence._labels(p, np.abs(p), np.abs(q), d)
        rounding = 1e-13 * max(1.0, np.linalg.norm(rho.cov), np.linalg.norm(rho.mean))
        assert np.all(np.abs(lab_moved - lab_r) <= r + rounding)

    @pytest.mark.parametrize("k", range(400))
    def test_loose_tol_accepts_noisy_planted_pairs(self, k):
        # every mean scale: the label band and the anchor follow tol, and a
        # large mean, not a weak tree edge, gives its mode the angle
        for noise, rel in ((1e-9, 1e-6), (1e-5, 1e-3)):
            rho, image, tol = noisy_planted_pair(k, noise, rel)
            verdict = gc.decide_equivalence(rho, image, tol=tol)
            assert isinstance(verdict, gc.Equivalent)
            assert verdict.residual <= tol

    def test_weak_tree_edge_at_mean_scale_300(self):
        # mode 11 hangs on a tree edge of modulus 0.011; from that edge its
        # angle is off by about 8e-8 rad, which its mean of modulus 427 turns
        # into a gap over tol, so the mean gives the angle
        rho, image, tol = noisy_planted_pair(59, 1e-9, 1e-6)
        assert isinstance(gc.decide_equivalence(rho, image, tol=tol), gc.Equivalent)


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
            residual = equivalence._residual(rho, sigma, gc.IncoherentUnitary(perm, tuple(theta)))
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

    def test_contradiction_is_numeric_error(self, monkeypatch):
        def refuses(rho, sigma):
            return gc.NotEquivalent(witness="search exhausted")

        monkeypatch.setattr(equivalence, "decide_equivalence", refuses)
        with pytest.raises(gc.NumericError, match="bits frozen, but.*search exhausted"):
            gc.is_frozen(gc.coherent(1.0), rotation_channel(0.8))

    @pytest.mark.parametrize("seed", range(10))
    def test_frozen_iff_equivalent(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(RandomStateRecipe(modes=2, seed=seed))
        channel = gc.random_igo(2, strict=True, rng=rng, unitary=bool(seed % 2))
        report = gc.is_frozen(state, channel)
        verdict = gc.decide_equivalence(state, gc.apply_channel(channel, state))
        assert report.frozen == isinstance(verdict, gc.Equivalent)
