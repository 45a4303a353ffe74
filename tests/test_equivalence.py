import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausscoh as gc
from gausscoh import equivalence
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

    for name in ("eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_solve)
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

    def test_rejects_wrong_angle_count(self):
        with pytest.raises(ValueError, match="one angle per mode"):
            gc.IncoherentUnitary(perm=(1, 0), angles=(0.0,))

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


def test_mode_mismatch_rejected():
    one, two = gc.coherent(1.0), random_state(RandomStateRecipe(modes=2, seed=0))
    with pytest.raises(gc.ShapeError, match="unitary has 1 modes but state has 2"):
        gc.apply_incoherent_unitary(gc.IncoherentUnitary(perm=(0,), angles=(0.1,)), two)
    for decide in (gc.decide_equivalence, gc.brute_force_equivalence):
        with pytest.raises(gc.ShapeError, match="mode mismatch: 1 vs 2"):
            decide(one, two)


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
        displaced=st.tuples(st.booleans(), st.booleans()),
    )
    def test_stages_one_and_two_answer_as_the_exact_tables(self, m, seed, lonely, displaced):
        # cross entries and anisotropies in [t/4, 4t]: many states sit at the
        # stages' threshold, where the verdicts must be the exact definitions'
        rng = np.random.default_rng(seed)
        pair = [_straddling_state(m, rng, lonely, d) for d in displaced]

        def definitions(state):
            """Occupations if thermal, else None, and the lonely modes, from
            isotropic_split and block_norms alone."""
            t = DEFAULT_TOL_REL * state.scale
            lam, rest = isotropic_split(state.cov)
            thermal = np.linalg.norm(state.mean) <= t and np.max(rest) <= t
            norms = block_norms(state.cov)
            np.fill_diagonal(norms, 0.0)
            lonely_modes = np.flatnonzero(norms.max(axis=1) <= t).tolist() if m > 1 else []
            return ([max((x - 1.0) / 2.0, 0.0) for x in lam] if thermal else None), lonely_modes

        for state in pair:
            want_cross = [
                max([np.linalg.norm(state.cross_cov(i, j)) for j in range(m) if j != i] or [0.0])
                for i in range(m)
            ]
            np.testing.assert_allclose(state.cross, want_cross, rtol=1e-15, atol=0.0)
            occupations, lonely_modes = definitions(state)
            assert gc.is_incoherent_state(state) == occupations
            violation = gc.check_hypothesis(state)
            if m == 1:
                assert (violation is None) == (occupations is None)
            elif lonely_modes:
                assert violation is not None and violation.mode == lonely_modes[0]
            else:
                assert violation is None

        for rho, sigma in (pair, pair[::-1]):
            (thermal_r, lonely_r), (thermal_s, lonely_s) = map(definitions, (rho, sigma))
            want = None
            if thermal_r is not None and thermal_s is not None:
                want = gc.AllIncoherent()
            elif (thermal_r is None) != (thermal_s is None):
                want = gc.NotEquivalent(witness="coherence mismatch")
            elif lonely_r or lonely_s:
                i = (lonely_r or lonely_s)[0]
                want = gc.HypothesisViolated(i, f"mode {i} has no nonzero off-diagonal block")
            verdict = gc.decide_equivalence(rho, sigma)
            if want is None:
                assert not isinstance(verdict, (gc.AllIncoherent, gc.HypothesisViolated))
                assert getattr(verdict, "witness", None) != "coherence mismatch"
            else:
                assert verdict == want


    @pytest.mark.parametrize("m", [64, 128])
    @pytest.mark.parametrize("kind", ["isotropic", "diagonal", "off-diagonal"])
    @pytest.mark.parametrize("size", [0.25, 4.0])
    def test_thermal_products_answer_as_isotropic_split(self, m, kind, size):
        # one mode's block gets a traceless anisotropy of size times default_tol,
        # on its diagonal or off it; stage 1 reads only the diagonal blocks
        cov = gc.thermal(np.linspace(0.0, 3.0, m)).cov.copy()
        t = DEFAULT_TOL_REL * np.linalg.norm(cov)
        k = m // 3
        if kind != "isotropic":
            shape = [[1.0, 0.0], [0.0, -1.0]] if kind == "diagonal" else [[0.0, 1.0], [1.0, 0.0]]
            cov[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] += size * t * np.array(shape)
        state = gc.validate_state(cov, np.zeros(2 * m))
        lam, rest = isotropic_split(state.cov)
        want = None
        if np.max(rest) <= DEFAULT_TOL_REL * state.scale:
            want = [max((x - 1.0) / 2.0, 0.0) for x in lam]
        assert (want is None) == (kind != "isotropic" and size > 1.0)
        assert gc.is_incoherent_state(state) == want


class TestDecideEquivalence:
    @pytest.mark.parametrize(
        "pair, tol, want",
        [
            pytest.param(lambda: (gc.thermal([1.0, 2.0]), gc.thermal([2.0, 1.0])), None,
                         gc.AllIncoherent(), id="both-thermal"),
            pytest.param(lambda: (gc.thermal([1.0, 2.0]), _lonely_state(2)), None,
                         gc.NotEquivalent(witness="coherence mismatch"), id="rho-thermal"),
            pytest.param(lambda: (_lonely_state(2), gc.thermal([1.0, 2.0])), None,
                         gc.NotEquivalent(witness="coherence mismatch"), id="sigma-thermal"),
            pytest.param(lambda: (_lonely_state(3, 2), _lonely_state(3)), None,
                         gc.HypothesisViolated(2, "mode 2 has no nonzero off-diagonal block"),
                         id="rho-lonely"),
            pytest.param(lambda: (_lonely_state(3), _lonely_state(3, 1)), None,
                         gc.HypothesisViolated(1, "mode 1 has no nonzero off-diagonal block"),
                         id="sigma-lonely"),
            pytest.param(lambda: (_lonely_state(3, 2), _lonely_state(3, 0)), 1e-3,
                         gc.HypothesisViolated(2, "mode 2 has no nonzero off-diagonal block"),
                         id="both-lonely"),
            pytest.param(lambda: (gc.thermal([1.0]), gc.thermal([3.0])), None,
                         gc.AllIncoherent(), id="one-mode-thermal"),
            pytest.param(lambda: (gc.thermal([1.0]), gc.coherent(1.0)), None,
                         gc.NotEquivalent(witness="coherence mismatch"), id="one-mode-mismatch"),
            pytest.param(lambda: (gc.coherent(1.0), _rotated(gc.coherent(1.0))), None,
                         gc.Equivalent, id="one-mode-coherent"),
            pytest.param(lambda: (_lonely_state(4), _rotated(_lonely_state(4))), None,
                         gc.Equivalent, id="correlated"),
            pytest.param(lambda: (gc.coherent(1.0), _lonely_state(2)), -1.0,
                         gc.ShapeError, id="mode-mismatch-before-bad-tol"),
            pytest.param(lambda: (gc.thermal([1.0, 2.0]), gc.thermal([1.0, 2.0])), float("nan"),
                         ValueError, id="bad-tol"),
        ],
    )
    def test_early_outcomes_are_the_per_state_checks(self, pair, tol, want):
        rho, sigma = pair()
        if isinstance(want, type) and issubclass(want, Exception):
            with pytest.raises(want):
                gc.decide_equivalence(rho, sigma, tol)
            return
        verdict = gc.decide_equivalence(rho, sigma, tol)
        if isinstance(want, type):
            # neither stage decides: the pair goes on to the spectrum and search
            assert _per_state_verdict(rho, sigma) is None
            assert isinstance(verdict, want)
        else:
            assert _per_state_verdict(rho, sigma) == want
            assert verdict == want

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


def _lonely_state(m, lonely=None):
    """2 I + 0.3 (J - I) on every quadrature, zero mean: a coherent state whose
    every mode is correlated, but for mode ``lonely``, cut off from the rest."""
    couplings = np.full((m, m), 0.3) + 1.7 * np.eye(m)
    if lonely is not None:
        couplings[lonely] = couplings[:, lonely] = 0.0
        couplings[lonely, lonely] = 2.0
    return gc.validate_state(np.kron(couplings, np.eye(2)), np.zeros(2 * m))


def _per_state_verdict(rho, sigma):
    """The verdict of the incoherence and hypothesis stages, taken state by
    state in the decider's order, or None when neither decides."""
    thermal = [gc.is_incoherent_state(state) is not None for state in (rho, sigma)]
    if all(thermal):
        return gc.AllIncoherent()
    if any(thermal):
        return gc.NotEquivalent(witness="coherence mismatch")
    for state in (rho, sigma):
        violation = gc.check_hypothesis(state)
        if violation is not None:
            return violation
    return None


def _rotated(state):
    unitary = random_incoherent_unitary(state.modes, np.random.default_rng(state.modes))
    return gc.apply_incoherent_unitary(unitary, state)


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
    put on mode 0's x. ``shape`` "two squeezed paths" also squeezes modes 0
    and m // 2, the BFS roots of the two paths, so that each root keeps two
    values of its component's w.
    """
    cov = np.kron(np.diag(rng.uniform(2.5, 3.5, size=m)), np.eye(2))
    edges = [(i, i + 1) for i in range(m - 1)]
    if shape == "ring" and m > 2:
        edges.append((m - 1, 0))
    if shape in ("two paths", "two squeezed paths") and m > 3:
        edges.remove((m // 2 - 1, m // 2))
    for i, j in edges:
        if kind != "general":
            flip = kind == "mixed" and rng.random() < 0.5
            block = rng.uniform(0.2, 0.5) * np.diag([1.0, -1.0 if flip else 1.0])
        else:
            block = rng.normal(0.0, 0.25, size=(2, 2))
        cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
        cov[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = block.T
    if shape == "two squeezed paths":
        for i in (0, m // 2):
            squeeze = rng.uniform(0.1, 0.3) * np.diag([1.0, -1.0])
            cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] += squeeze
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


def _walk_spy(monkeypatch):
    """Make ``equivalence._walk`` record each walk's ``full`` and the
    assignment it found, in a list."""
    walks, real = [], equivalence._walk

    def spy(*args):
        found, best = real(*args)
        walks.append((args[-1], found))
        return found, best

    monkeypatch.setattr(equivalence, "_walk", spy)
    return walks


def _label_spy(monkeypatch):
    """Make ``equivalence._labels`` record the mode count of each label table
    it builds, in a list."""
    tables, real = [], equivalence._labels

    def spy(p, abs_p, abs_q, d):
        tables.append(d.shape[-1])
        return real(p, abs_p, abs_q, d)

    monkeypatch.setattr(equivalence, "_labels", spy)
    return tables


def _full_walks():
    """Patch ``equivalence._walk`` to run every per-mode test on every walk,
    as the search does on a permutation the labels leave open."""
    real = equivalence._walk
    return mock.patch.object(equivalence, "_walk", lambda *args: real(*args[:-1], True))


def _parts_spy(monkeypatch):
    """Make ``equivalence.block_parts`` record the shape of each stack it
    splits, in a list."""
    calls, real = [], equivalence.block_parts

    def spy(cov):
        calls.append(cov.shape)
        return real(cov)

    monkeypatch.setattr(equivalence, "block_parts", spy)
    return calls


def _tensor_spy(monkeypatch):
    """Make ``np.abs`` record the mode count m of each m x m x (2m + 3) label
    tensor it takes, the full comparison of two label tables, in a list."""
    tensors, real = [], np.abs

    def spy(x, *args, **kwargs):
        shape = np.shape(x)
        if len(shape) == 3 and shape[0] == shape[1] and shape[2] == 2 * shape[0] + 3:
            tensors.append(shape[0])
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", spy)
    return tensors


def _weights(state):
    """Each mode's local weight tr V_ii / 2."""
    return state.cov.diagonal().reshape(-1, 2).mean(axis=1)


def _mixed(rho, planted, angle):
    """rho after a beam splitter on modes 0 and 1 (one mode: a squeezer), then
    ``planted``: the spectrum is kept, by a beam splitter x^t V x too, and
    the local blocks move."""
    if rho.modes == 1:
        mixer = np.diag([np.exp(angle), np.exp(-angle)])
    else:
        mixer = np.eye(2 * rho.modes)
        mixer[0:4, 0:4] = np.kron(rotation(angle), np.eye(2))
    image = gc.validate_state(mixer @ rho.cov @ mixer.T, mixer @ rho.mean)
    return gc.apply_incoherent_unitary(planted, image)


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
        with _full_walks():
            searched = gc.decide_equivalence(rho, sigma, tol=tol)
        # verdict, certificate, residual and best residual, bit for bit
        assert repr(settled) == repr(searched)

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["path", "ring", "two paths", "two squeezed paths"]),
        kind=st.sampled_from(["rotation", "mixed", "general"]),
        weak_mean=st.booleans(),
        noise_rel=st.sampled_from([(0.0, None), (1e-9, 1e-6), (1e-7, None), (1e-5, 1e-3)]),
        planted=st.booleans(),
    )
    def test_settling_matches_the_search_without_a_mean(
        self, m, seed, shape, kind, weak_mean, noise_rel, planted
    ):
        # zero-mean isotropic states: no root has a part above the anchor, so
        # w is fixed mid-walk by a reflection part, by the weak mean, or never;
        # or two squeezed roots each keep two values of w
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
        with _full_walks():
            searched = gc.decide_equivalence(rho, sigma, tol=tol)
        assert repr(settled) == repr(searched)

    def test_settle_decides_generic_pairs_and_zero_mean_paths(self, monkeypatch):
        walks = _walk_spy(monkeypatch)
        planted = gc.decide_equivalence(*_generic_pair(6, 6, 1.0))
        assert isinstance(planted, gc.Equivalent)
        # a mean small enough to keep x^t V x within its band reaches the walk,
        # and the rotated mode's mean test prunes the one leaf
        rotated = gc.decide_equivalence(*_generic_pair(6, 6, 0.01, rotated=True))
        assert rotated == gc.NotEquivalent(witness="search exhausted", best_residual=None)
        # distinct couplings pin the path, and no part fixes w: an exact gauge,
        # so w stays 1 and one residual decides
        rho = gc.validate_state(_isotropic_path(8), np.zeros(16))
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(8, np.random.default_rng(8)), rho)
        path = gc.decide_equivalence(rho, sigma)
        assert isinstance(path, gc.Equivalent)
        # two components, each with a squeezed mode whose reflection part keeps
        # two values of w: one walk tries each choice, at most four leaves
        cov = _isotropic_path(6)
        cov[6:8, 4:6] = cov[4:6, 6:8] = 0.0
        cov[0:2, 0:2] = np.diag([3.2, 2.8])
        cov[6:8, 6:8] = np.diag([3.3, 2.7])
        rho = gc.validate_state(cov, np.zeros(12))
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(6, np.random.default_rng(6)), rho)
        forked = gc.decide_equivalence(rho, sigma)
        assert isinstance(forked, gc.Equivalent)
        # each pinned pair takes one walk without the per-mode tests
        assert walks == [(False, planted), (False, None), (False, path), (False, forked)]

    def test_weights_pin_a_generic_pair_before_any_label(self, monkeypatch):
        rho, sigma = _generic_pair(8, 8, 1.0)
        tables, walks = _label_spy(monkeypatch), _walk_spy(monkeypatch)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert tables == [] and walks == [(False, verdict)]
        # a walk that finds nothing sends the pair on to the labels, which pin
        # the same permutation: its walk is not repeated
        tables.clear(), walks.clear()
        rotated = gc.decide_equivalence(*_generic_pair(8, 8, 0.01, rotated=True))
        assert rotated == gc.NotEquivalent(witness="search exhausted", best_residual=None)
        assert tables == [8] and walks == [(False, None)]

    @pytest.mark.parametrize("spacing", [2.5, 3.5])
    def test_weights_under_three_bands_apart_take_the_labels(self, spacing, monkeypatch):
        # rho's local weights tr V_ii / 2 set to spacing label bands apart, in
        # their old order; the verdict is the checked search's either way
        base, _, planted = equivalent_pair(RandomStateRecipe(modes=4, seed=3))
        lam = base.cov.diagonal().reshape(-1, 2).mean(axis=1)
        cov = base.cov + np.kron(np.diag(lam.max() - lam), np.eye(2))
        band = 1e-6 * max(1.0, np.linalg.norm(cov))
        cov += np.kron(np.diag(spacing * band * lam.argsort().argsort()), np.eye(2))
        rho = gc.validate_state(cov, base.mean)
        sigma = gc.apply_incoherent_unitary(planted, rho)
        gaps = np.diff(np.sort(rho.cov.diagonal().reshape(-1, 2).mean(axis=1)))
        assert np.allclose(gaps / equivalence._bands(rho, 0.0)[0], spacing, rtol=1e-3)
        with _full_walks():
            searched = gc.decide_equivalence(rho, sigma)
        tables, walks = _label_spy(monkeypatch), _walk_spy(monkeypatch)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent) and verdict.certificate.perm == planted.perm
        assert repr(verdict) == repr(searched)
        assert tables == ([4] if spacing < 3.0 else []) and walks == [(False, verdict)]

    def test_spread_weights_reject_a_beam_splitter_negative(self, monkeypatch):
        # the beam splitter keeps the spectrum and x^t V x; rho's weights lie
        # over 3 bands apart, so sigma's, off rho's by rank, leave a mode no
        # partner before any block part is taken
        rho, _, planted = equivalent_pair(RandomStateRecipe(modes=8, seed=8))
        sigma = _mixed(rho, planted, 0.7)
        band, h_band = equivalence._bands(rho, _accept(rho))
        assert np.abs(rho.spectrum - sigma.spectrum).max() <= _accept(rho)
        quadratic = equivalence._mean_quadratic
        assert abs(quadratic(rho) - quadratic(sigma)) <= h_band
        assert np.diff(np.sort(_weights(rho))).min() > 3.0 * band
        parts, tables = _parts_spy(monkeypatch), _label_spy(monkeypatch)
        assert gc.decide_equivalence(rho, sigma) == gc.NotEquivalent(witness="mode fingerprints")
        assert parts == [] and tables == []

    def test_weight_pinned_negatives_compare_only_the_pinned_rows(self, monkeypatch):
        # sigma's largest mean lengthened by two bands: covariance, spectrum and
        # weights are kept, and x^t V x stays within its band
        rho, sigma = _generic_pair(8, 8, 1.0)
        band, h_band = equivalence._bands(rho, _accept(rho))
        k = int(np.argmax(np.linalg.norm(sigma.mean.reshape(-1, 2), axis=1)))
        mean = sigma.mean.copy()
        mean[2 * k : 2 * k + 2] *= 1.0 + 2.0 * band / np.linalg.norm(mean[2 * k : 2 * k + 2])
        stretched = gc.validate_state(sigma.cov, mean)
        quadratic = equivalence._mean_quadratic
        assert abs(quadratic(rho) - quadratic(stretched)) <= h_band
        tensors, tables = _tensor_spy(monkeypatch), _label_spy(monkeypatch)
        walks = _walk_spy(monkeypatch)
        verdict = gc.decide_equivalence(rho, stretched)
        # the pinned walk's leaf fails; then mode k's row sees |d_k| move
        assert verdict == gc.NotEquivalent(witness="mode fingerprints")
        assert tables == [8] and walks == [(False, None)]
        # noise on the image: the pinned rows pass, and the checked walk
        # reaches a leaf, for best_residual
        walks.clear()
        verdict = gc.decide_equivalence(*_generic_pair(6, 0, 1.0, noise=2e-8))
        assert verdict.witness == "search exhausted"
        assert verdict.best_residual == pytest.approx(4.793664792203691e-07, rel=1e-6)
        assert tables == [8, 6] and walks == [(False, None), (True, None)]
        assert tensors == []
        # equal weights: a zero-mean isotropic path compares the whole tensor
        rho = gc.validate_state(_isotropic_path(8), np.zeros(16))
        sigma = gc.apply_incoherent_unitary(random_incoherent_unitary(8, np.random.default_rng(8)), rho)
        assert isinstance(gc.decide_equivalence(rho, sigma), gc.Equivalent)
        assert tensors == [8]

    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        mean_scale=st.sampled_from([0.0, 0.01, 1.0, 30.0]),
        kind=st.sampled_from(["planted", "perturbed", "mixed", "mean-rotated"]),
    )
    def test_a_weight_rejection_leaves_a_mode_no_partner(self, m, seed, mean_scale, kind):
        recipe = RandomStateRecipe(modes=m, seed=seed, mean_scale=mean_scale)
        if kind == "perturbed":
            rho, sigma = perturbed_pair(recipe, magnitude=1e-7)
        elif kind == "mixed":
            rho, _, planted = equivalent_pair(recipe)
            sigma = _mixed(rho, planted, 0.2 + seed % 100 / 100.0)
        else:
            rho, sigma = _generic_pair(m, seed, mean_scale, rotated=kind == "mean-rotated")
        band, h_band = equivalence._bands(rho, _accept(rho))
        with mock.patch.object(equivalence, "block_parts", wraps=block_parts) as parts:
            verdict = gc.decide_equivalence(rho, sigma)
        quadratic = equivalence._mean_quadratic
        kept = not (rho.mean.any() or sigma.mean.any()) or (
            abs(quadratic(rho) - quadratic(sigma)) <= h_band
        )
        if verdict != gc.NotEquivalent(witness="mode fingerprints") or parts.called or not kept:
            return
        # rejected by the weights: the full label comparison agrees
        p, q = block_parts(np.stack([rho.cov, sigma.cov]))
        d = np.stack([rho.mean, sigma.mean]).view(complex)
        lab_r, lab_s = equivalence._labels(p, np.abs(p), np.abs(q), d)
        compatible = (np.abs(lab_r[:, None] - lab_s[None, :]) <= band).all(axis=2)
        assert not (compatible.any(axis=0).all() and compatible.any(axis=1).all())

    def test_weak_part_roots_that_both_fail(self, monkeypatch):
        # an isotropic path with anisotropies of 3e-7, below the anchor, on
        # modes 0 and 2: w stays free to the end, and the strongest weak part,
        # a local reflection part, fixes it. With mode 2's anisotropy turned by
        # 0.6 rad in sigma, neither root meets both modes. Equal weights: the
        # labels pin the permutation
        cov = _isotropic_path(4)
        anisotropy = 3e-7 * np.diag([1.0, -1.0])
        cov[0:2, 0:2] += anisotropy
        cov[4:6, 4:6] += anisotropy
        rho = gc.validate_state(cov, np.zeros(8))
        turned = cov.copy()
        turned[4:6, 4:6] = 3.0 * np.eye(2) + rotation(0.6) @ anisotropy @ rotation(0.6).T
        sigma = gc.validate_state(turned, np.zeros(8))
        tables, walks = _label_spy(monkeypatch), _walk_spy(monkeypatch)
        verdict = gc.decide_equivalence(rho, sigma)
        assert np.abs(rho.spectrum - sigma.spectrum).max() < 1e-14
        assert verdict.witness == "search exhausted"
        assert verdict.best_residual == pytest.approx(4.79e-7, rel=1e-3)
        assert tables == [4] and walks == [(False, None), (True, None)]
        copy = gc.validate_state(cov.copy(), np.zeros(8))
        assert gc.decide_equivalence(rho, copy) == gc.Equivalent(
            certificate=gc.IncoherentUnitary(perm=(0, 1, 2, 3), angles=(0.0,) * 4), residual=0.0
        )

    def test_a_settled_pair_takes_one_matrix_norm(self, monkeypatch):
        # every tolerance reads state.scale: only the leaf residual's ||.||_F is
        # left, and every vector norm is sqrt(x.x), the bits np.linalg.norm gives
        rho, sigma = _generic_pair(6, 6, 1.0)
        ring, image = _displaced_ring_negative(6, 6)
        ndims, real = [], np.linalg.norm

        def spy(x, *args, **kwargs):
            ndims.append(np.ndim(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        walks = _walk_spy(monkeypatch)
        verdict = gc.decide_equivalence(rho, sigma)
        assert isinstance(verdict, gc.Equivalent)
        assert walks == [(False, verdict)]
        assert ndims == [2]
        # rejected at x^t V x: no norm at all
        ndims.clear()
        assert gc.decide_equivalence(ring, image) == gc.NotEquivalent(witness="mode fingerprints")
        assert ndims == []

    def test_no_check_writes_to_a_state(self):
        ring = gc.validate_state(_isotropic_ring(5), np.zeros(10))
        # correlated pairs, one rejected at x^t V x, a lonely mode and a thermal state
        states = (
            ring, _rotated(ring), *_displaced_ring_negative(5, 5),
            _lonely_state(3, 2), gc.thermal([1.0, 2.0, 3.0]),
        )
        before = [dict(vars(state)) for state in states]
        for state in states:
            gc.is_incoherent_state(state)
            gc.check_hypothesis(state)
        for rho, sigma in zip(states[::2], states[1::2]):
            gc.decide_equivalence(rho, sigma)
            gc.decide_equivalence(sigma, rho)
        for state, fields in zip(states, before):
            assert vars(state).keys() == fields.keys()
            assert all(vars(state)[name] is value for name, value in fields.items())

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
        walks = _walk_spy(monkeypatch)
        verdict = gc.decide_equivalence(rho, other, tol=tol)
        assert verdict == gc.NotEquivalent(witness="search exhausted", best_residual=None)
        # the walk without per-mode tests reaches the leaf, which fails; the
        # full walk, which gives best_residual, rejects mode 4 before it
        assert walks == [(False, None), (True, None)]


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
    def test_two_thermal_products_end_in_the_precheck(self):
        verdict = gc.brute_force_equivalence(gc.thermal([0.5, 1.0]), gc.thermal([1.0, 0.5]))
        assert verdict == gc.AllIncoherent()

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

    def test_level_cap_ends_in_search_exhausted(self, monkeypatch):
        # the perturbation is small enough that boxes outlive two levels
        rho, sigma = perturbed_pair(RandomStateRecipe(modes=2, seed=0), magnitude=1e-6)
        assert gc.brute_force_equivalence(rho, sigma).witness == "residual lower bound"
        monkeypatch.setattr(equivalence, "_MAX_LEVELS", 2)
        verdict = gc.brute_force_equivalence(rho, sigma)
        assert verdict.witness == "search exhausted"
        assert np.isfinite(verdict.best_residual)

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
