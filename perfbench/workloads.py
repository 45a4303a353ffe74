"""The benchmark's workloads: how each makes its ops, runs one and checks it.

Every workload is a closed loop with one client. Ops come in blocks; a
block is made from (seed, block index) alone, its order shuffled by the
same key, and every op gets state objects of its own. An op's ``positive``
is its planted truth: equivalent for the decider and the oracle, exit code
0 for the CLI.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gausscoh as gc
from gausscoh import cli, serialization
from gausscoh.sampling import RandomStateRecipe, equivalent_pair, perturbed_pair, random_state

import families as fam
from tracing import Tracer

#: block key of the warm-up ops, distinct from every timed block
WARMUP_BLOCK = 1_000_000

WITNESSES = {
    "symplectic spectrum": "spectrum",
    "mode fingerprints": "fingerprints",
    "search exhausted": "search_exhausted",
    "coherence mismatch": "coherence_mismatch",
}


class OpFailed(Exception):
    """An op's result disagrees with its planted truth or fails a re-check."""


@dataclass
class Op:
    index: int
    kind: str
    modes: int
    positive: bool
    inputs: dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base class: ``make_block`` and ``execute`` are what a workload defines."""

    name = ""

    def __init__(self, seed: int, tracer: Tracer, workdir: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.witnesses = {key: 0 for key in WITNESSES.values()}
        self.residual_max = 0.0

    def block(self, b: int) -> list[Op]:
        ops = self.make_block(b, fam.seed_rng(self.seed, b))
        order = fam.seed_rng(self.seed, b, 1).permutation(len(ops))
        return [ops[k] for k in order]

    def warmup_ops(self) -> list[Op]:
        return self.make_block(WARMUP_BLOCK, fam.seed_rng(self.seed, WARMUP_BLOCK), warmup=True)

    def make_block(self, b: int, rng: np.random.Generator, warmup: bool = False) -> list[Op]:
        """The ops of block ``b``; with ``warmup``, a few small ones of each kind."""
        raise NotImplementedError

    def execute(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> None:
        """Raise :class:`OpFailed` unless ``result`` is right; a verdict by default."""
        self.check_verdict(op, result)

    def traced_extras(self, op: Op) -> None:
        """Calls made only in the traced run, after the timed op."""

    def index(self, b: int, j: int) -> int:
        return b * 1000 + j

    # -- shared by the workloads ----------------------------------------------

    def check_verdict(self, op: Op, verdict) -> None:
        rho, sigma = op.inputs["rho"], op.inputs["sigma"]
        if isinstance(verdict, gc.Equivalent):
            residual = fam.certificate_residual(verdict.certificate, rho, sigma)
            if self.tracer.enabled:
                self.residual_max = max(self.residual_max, residual)
            if not fam.accepts(residual, rho):
                raise OpFailed(f"certificate residual {residual:.3e} re-checked too large")
            if not op.positive:
                raise OpFailed("planted negative decided equivalent")
        elif isinstance(verdict, gc.NotEquivalent):
            if self.tracer.enabled:
                key = WITNESSES.get(str(verdict.witness))
                if key is not None:
                    self.witnesses[key] += 1
            if op.positive:
                raise OpFailed(f"planted pair decided not equivalent ({verdict.witness})")
        else:
            raise OpFailed(f"unexpected verdict {verdict!r}")

    def state(self, op: int, cov: np.ndarray, mean: np.ndarray) -> gc.GaussianState:
        return self.tracer.call("core.validate_state", op, gc.validate_state, cov, mean)

    def transformed(self, op: int, unitary, state: gc.GaussianState) -> gc.GaussianState:
        return self.tracer.call(
            "equivalence.apply_incoherent_unitary", op, gc.apply_incoherent_unitary, unitary, state
        )

    def pair(self, op: int, sampler, recipe: RandomStateRecipe):
        name = "sampling." + sampler.__name__
        return self.tracer.call(name, op, sampler, recipe)

    def spectrum_kept(self, op: int, kind: str, rho: gc.GaussianState, unitary, rng):
        """sigma of a ``mixed`` or ``mean-rotated`` negative: rho's spectrum, not its class."""
        if kind == "mixed":
            image = self.state(op, *fam.mixed(rho.cov, rho.mean, rng))
        else:
            image = self.state(op, rho.cov, fam.rotated_mean(rho.mean, rng))
        sigma = self.transformed(op, unitary, image)
        if not fam.spectra_agree(rho.cov, sigma.cov):
            raise RuntimeError(f"{kind} negative changed the symplectic spectrum")
        return sigma


class DecideWorkload(Workload):
    def execute(self, op: Op):
        return self.tracer.call(
            "equivalence.decide_equivalence", op.index,
            gc.decide_equivalence, op.inputs["rho"], op.inputs["sigma"],
        )

    def traced_extras(self, op: Op) -> None:
        # the checks decide_equivalence makes before it searches, on copies made
        # outside any span, so that a per-state cache cannot turn them into hits
        for state in (op.inputs["rho"], op.inputs["sigma"]):
            state = gc.validate_state(state.cov.copy(), state.mean.copy())
            self.tracer.call("core.is_incoherent_state", op.index, gc.is_incoherent_state, state)
            self.tracer.call("equivalence.check_hypothesis", op.index, gc.check_hypothesis, state)
            self.tracer.call("core.williamson_spectrum", op.index, gc.williamson_spectrum, state)


class DecideRandom(DecideWorkload):
    """Generic seeded states over the mode grid 1-16; half the pairs planted.

    Per mode count a block holds three planted pairs and one negative of
    each kind: ``perturbed`` (rejected by the spectrum), ``mixed`` (a beam
    splitter on rho keeps the spectrum; fingerprints reject) and
    ``mean-rotated`` (spectrum and fingerprints kept; the search over the
    single candidate permutation is exhausted).
    """

    name = "decide-random"
    KINDS = ("planted", "planted", "planted", "perturbed", "mixed", "mean-rotated")

    def make_block(self, b: int, rng: np.random.Generator, warmup: bool = False) -> list[Op]:
        ops = []
        for m in [2] if warmup else range(1, 17):
            for kind in self.KINDS:
                i = self.index(b, len(ops))
                recipe = RandomStateRecipe(modes=m, seed=fam.recipe_seed(rng))
                if kind == "perturbed":
                    rho, sigma = self.pair(i, perturbed_pair, recipe)
                else:
                    rho, sigma, unitary = self.pair(i, equivalent_pair, recipe)
                if kind in ("mixed", "mean-rotated"):
                    sigma = self.spectrum_kept(i, kind, rho, unitary, rng)
                ops.append(Op(i, kind, m, kind == "planted", {"rho": rho, "sigma": sigma}))
        return ops


class DecideSymmetric(DecideWorkload):
    """Symmetric families where the permutation search and angle scan do the work.

    Zero-mean isotropic rings (m = 3-5) and paths (m = 4-12) are planted
    pairs; displaced rings with scrambled mean phases (m = 4-6) are
    negatives that keep spectrum and fingerprints and exhaust the search.
    Op times differ by family and size by two orders of magnitude. Ten
    m = 6 displaced rings per block put the median negative near the middle
    of that one size's times: a median taken in a size's tail, or between
    two sizes, moves more from run to run than the times themselves do.
    """

    name = "decide-symmetric"
    SIZES = {
        "ring": [3, 3, 4, 4, 5, 5],
        "path": list(range(4, 13)),
        "displaced-ring": [4, 5] + [6] * 10,
    }

    def make_block(self, b: int, rng: np.random.Generator, warmup: bool = False) -> list[Op]:
        ops = []
        for kind, sizes in self.SIZES.items():
            for m in sizes[:1] if warmup else sizes:
                i = self.index(b, len(ops))
                unitary = fam.random_unitary(m, rng)
                if kind == "displaced-ring":
                    cov, mean_a, mean_b = fam.displaced_rings(m, rng)
                    rho = self.state(i, cov, mean_a)
                    sigma = self.transformed(i, unitary, self.state(i, cov, mean_b))
                    if not fam.spectra_agree(rho.cov, sigma.cov):
                        raise RuntimeError("displaced ring changed the symplectic spectrum")
                else:
                    cov = fam.ring_cov(m, rng) if kind == "ring" else fam.path_cov(m, rng)
                    rho = self.state(i, cov, np.zeros(2 * m))
                    sigma = self.transformed(i, unitary, rho)
                ops.append(Op(i, kind, m, kind != "displaced-ring", {"rho": rho, "sigma": sigma}))
        return ops


class Oracle(Workload):
    """``brute_force_equivalence`` on the Tier-1 oracle mix: m = 1-3, planted and perturbed."""

    name = "oracle"

    def make_block(self, b: int, rng: np.random.Generator, warmup: bool = False) -> list[Op]:
        ops = []
        for j in range(0, 6, 3) if warmup else range(6):
            i = self.index(b, j)
            m, positive = 1 + j % 3, bool(j % 2)
            recipe = RandomStateRecipe(modes=m, seed=fam.recipe_seed(rng))
            if positive:
                rho, sigma, _ = self.pair(i, equivalent_pair, recipe)
            else:
                rho, sigma = self.pair(i, perturbed_pair, recipe)
            ops.append(Op(i, "planted" if positive else "perturbed", m, positive,
                          {"rho": rho, "sigma": sigma}))
        return ops

    def execute(self, op: Op):
        return self.tracer.call(
            "equivalence.brute_force_equivalence", op.index,
            gc.brute_force_equivalence, op.inputs["rho"], op.inputs["sigma"],
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@dataclass
class CliCase:
    """One CLI invocation: its argv, expected exit code and output check."""

    argv: list[str]
    expect: int
    check: Callable[[dict], None]
    library: Callable[[int], Any]


def _close(a, b, tol: float, what: str) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=tol):
        raise OpFailed(f"{what} differs from the expected value")


def _expect_field(doc: dict, key: str, value) -> None:
    if doc.get(key) != value:
        raise OpFailed(f"{key} is {doc.get(key)!r}, expected {value!r}")


class Cli(Workload):
    """One ``python -m gausscoh.cli`` process per op, on documents written with its block."""

    name = "cli"

    def __init__(self, seed: int, tracer: Tracer, workdir: Path) -> None:
        super().__init__(seed, tracer, workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def make_block(self, b: int, rng: np.random.Generator, warmup: bool = False) -> list[Op]:
        makers = [self._make] if warmup else [
            self._make, self._validate, self._spectrum, self._coherence, self._apply,
            self._classify, self._classify_negative, self._petz, self._frozen,
            self._frozen_negative, self._equiv, self._equiv_negative, self._equiv_mixed,
            self._equiv_rotated, self._equiv_oracle, self._gen_pair,
        ]
        ops = []
        for maker in makers:
            i = self.index(b, len(ops))
            m = int(rng.integers(2, 5))
            kind = maker.__name__.lstrip("_").replace("_", "-")
            case = maker(i, m, rng)
            ops.append(Op(i, kind, m, case.expect == 0, {"case": case}))
        return ops

    def execute(self, op: Op):
        argv = [sys.executable, "-m", "gausscoh.cli", *op.inputs["case"].argv]
        with self.tracer.span("cli.process", op.index):
            return subprocess.run(argv, capture_output=True, text=True, timeout=120)

    def check(self, op: Op, result) -> None:
        case = op.inputs["case"]
        if result.returncode != case.expect:
            raise OpFailed(f"exit code {result.returncode}, expected {case.expect}: "
                           f"{result.stderr.strip()[-300:]}")
        case.check(json.loads(result.stdout))

    def traced_extras(self, op: Op) -> None:
        case = op.inputs["case"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = self.tracer.call("cli.run", op.index, cli.run, case.argv)
        if code != case.expect:
            raise OpFailed(f"in-process exit code {code}, expected {case.expect}")
        case.library(op.index)

    # -- documents ----------------------------------------------------------

    def _path(self, op: int, tag: str) -> str:
        return str(self.workdir / f"{op}-{tag}.json")

    def _save_state(self, op: int, tag: str, state: gc.GaussianState) -> str:
        path = self._path(op, tag)
        serialization.save_state(state, path)
        return path

    def _save_channel(self, op: int, tag: str, channel: gc.GaussianChannel) -> str:
        path = self._path(op, tag)
        serialization.save_channel(channel, path)
        return path

    def _random_state(self, m: int, rng) -> gc.GaussianState:
        return random_state(RandomStateRecipe(modes=m, seed=fam.recipe_seed(rng)))

    def _load_state(self, op: int, path: str) -> gc.GaussianState:
        return self.tracer.call("serialization.load_state", op, serialization.load_state, path)

    def _load_channel(self, op: int, path: str) -> gc.GaussianChannel:
        return self.tracer.call("serialization.load_channel", op, serialization.load_channel, path)

    # -- one maker per subcommand ---------------------------------------------

    def _make(self, op: int, m: int, rng) -> CliCase:
        alpha = complex(*rng.uniform(-1.5, 1.5, size=2))
        beta = complex(*rng.uniform(-0.6, 0.6, size=2))

        def check(doc):
            cov = np.asarray(doc["cov"])
            _close(doc["mean"], [2 * alpha.real, 2 * alpha.imag], 1e-12, "mean")
            # a pure squeezed state: det V = 1 and tr V = 2 cosh 2|beta|
            _close([np.linalg.det(cov), np.trace(cov)], [1.0, 2 * math.cosh(2 * abs(beta))],
                   1e-9, "covariance")

        return CliCase(
            # "=" keeps a leading minus sign from reading as an option
            ["make", "squeezed", f"--alpha={alpha.real!r},{alpha.imag!r}",
             f"--beta={beta.real!r},{beta.imag!r}"],
            0, check,
            lambda i: self.tracer.call("zoo.displaced_squeezed", i, gc.displaced_squeezed, alpha, beta),
        )

    def _validate(self, op: int, m: int, rng) -> CliCase:
        state = self._random_state(m, rng)
        path = self._save_state(op, "state", state)

        def check(doc):
            _close(doc["cov"], state.cov, 1e-12, "covariance")
            _close(doc["mean"], state.mean, 1e-12, "mean")

        return CliCase(["validate", path], 0, check, lambda i: self._load_state(i, path))

    def _spectrum(self, op: int, m: int, rng) -> CliCase:
        state = self._random_state(m, rng)
        path = self._save_state(op, "state", state)
        expected = fam.symplectic_spectrum(state.cov)

        def library(i):
            self.tracer.call("core.williamson_spectrum", i, gc.williamson_spectrum,
                             self._load_state(i, path))

        return CliCase(
            ["spectrum", path], 0,
            lambda doc: _close(doc["symplectic_eigenvalues"], expected, 1e-8, "spectrum"),
            library,
        )

    def _coherence(self, op: int, m: int, rng) -> CliCase:
        state = self._random_state(m, rng)
        path = self._save_state(op, "state", state)
        expected = fam.coherence_bits(state.cov, state.mean)

        def library(i):
            self.tracer.call("coherence.relative_entropy_coherence", i,
                             gc.relative_entropy_coherence, self._load_state(i, path))

        return CliCase(
            ["coherence", path], 0,
            lambda doc: _close(doc["c_rel_ent"], expected, 1e-8 * (1 + expected), "C_R"),
            library,
        )

    def _apply(self, op: int, m: int, rng) -> CliCase:
        state = self._random_state(m, rng)
        channel = gc.random_igo(m, strict=False, rng=rng)
        state_path = self._save_state(op, "state", state)
        channel_path = self._save_channel(op, "channel", channel)
        cov = channel.T @ state.cov @ channel.T.T + channel.N
        mean = channel.T @ state.mean + channel.shift

        def check(doc):
            _close(doc["cov"], cov, 1e-9, "covariance")
            _close(doc["mean"], mean, 1e-9, "mean")

        def library(i):
            self.tracer.call("channels.apply_channel", i, gc.apply_channel,
                             self._load_channel(i, channel_path), self._load_state(i, state_path))

        return CliCase(["apply", channel_path, state_path], 0, check, library)

    def _classify_case(self, op: int, channel: gc.GaussianChannel, verdict: str) -> CliCase:
        path = self._save_channel(op, "channel", channel)

        def library(i):
            self.tracer.call("channels.classify_incoherent", i, gc.classify_incoherent,
                             self._load_channel(i, path))

        return CliCase(["classify", path], 0 if verdict != "not-incoherent" else 1,
                       lambda doc: _expect_field(doc, "verdict", verdict), library)

    def _classify(self, op: int, m: int, rng) -> CliCase:
        return self._classify_case(op, gc.random_igo(m, strict=True, rng=rng),
                                   "strictly-incoherent")

    def _classify_negative(self, op: int, m: int, rng) -> CliCase:
        mixer = fam.beam_splitter(m, 0, 1, rng.uniform(0.3, 1.2))
        channel = gc.validate_channel(mixer, np.zeros((2 * m, 2 * m)), np.zeros(2 * m))
        return self._classify_case(op, channel, "not-incoherent")

    def _petz(self, op: int, m: int, rng) -> CliCase:
        channel = gc.random_igo(m, strict=True, rng=rng)
        path = self._save_channel(op, "channel", channel)
        n_ref = [float(n) for n in rng.uniform(0.3, 2.0, size=m)]
        v_ref = np.kron(np.diag([2 * n + 1 for n in n_ref]), np.eye(2))
        image = channel.T @ v_ref @ channel.T.T + channel.N

        def check(doc):
            t_rec, n_rec = np.asarray(doc["T"]), np.asarray(doc["N"])
            # the recovery maps the image of the reference back onto it
            _close(t_rec @ image @ t_rec.T + n_rec, v_ref, 1e-8 * np.linalg.norm(v_ref),
                   "recovered reference")

        def library(i):
            self.tracer.call("channels.petz_recovery", i, gc.petz_recovery,
                             self._load_channel(i, path), gc.thermal(n_ref))

        return CliCase(["petz", path, "--thermal", ",".join(repr(n) for n in n_ref)], 0,
                       check, library)

    def _frozen_case(self, op: int, state, channel, frozen: bool) -> CliCase:
        state_path = self._save_state(op, "state", state)
        channel_path = self._save_channel(op, "channel", channel)
        out_cov = channel.T @ state.cov @ channel.T.T + channel.N
        out_mean = channel.T @ state.mean + channel.shift
        image = gc.validate_state(out_cov, out_mean)

        def check(doc):
            _expect_field(doc, "frozen", frozen)
            _close(doc["coherence_in"], fam.coherence_bits(state.cov, state.mean), 1e-8,
                   "input coherence")
            if "certificate" in doc:
                cert = gc.IncoherentUnitary(tuple(doc["certificate"]["perm"]),
                                            tuple(doc["certificate"]["angles"]))
                self._check_certificate(cert, state, image)

        def library(i):
            self.tracer.call("equivalence.is_frozen", i, gc.is_frozen,
                             self._load_state(i, state_path), self._load_channel(i, channel_path))

        return CliCase(["frozen", state_path, channel_path], 0 if frozen else 1, check, library)

    def _frozen(self, op: int, m: int, rng) -> CliCase:
        channel = gc.random_igo(m, strict=True, rng=rng, unitary=True)
        return self._frozen_case(op, self._random_state(m, rng), channel, True)

    def _frozen_negative(self, op: int, m: int, rng) -> CliCase:
        state = self._random_state(m, rng)
        for _ in range(16):
            channel = gc.random_igo(m, strict=True, rng=rng)
            out_cov = channel.T @ state.cov @ channel.T.T + channel.N
            out_mean = channel.T @ state.mean + channel.shift
            change = abs(fam.coherence_bits(out_cov, out_mean)
                         - fam.coherence_bits(state.cov, state.mean))
            if change > 1e-3:
                return self._frozen_case(op, state, channel, False)
        raise RuntimeError("no channel changed the coherence")

    def _check_certificate(self, cert, rho, sigma) -> None:
        residual = fam.certificate_residual(cert, rho, sigma)
        if self.tracer.enabled:
            self.residual_max = max(self.residual_max, residual)
        if not fam.accepts(residual, rho):
            raise OpFailed(f"certificate residual {residual:.3e} re-checked too large")

    def _equiv_case(self, op: int, rho, sigma, positive: bool, oracle: bool) -> CliCase:
        a = self._save_state(op, "a", rho)
        b = self._save_state(op, "b", sigma)

        def check(doc):
            if not positive:
                _expect_field(doc, "verdict", "not-equivalent")
                return
            _expect_field(doc, "verdict", "equivalent")
            self._check_certificate(
                gc.IncoherentUnitary(tuple(doc["perm"]), tuple(doc["angles"])), rho, sigma)

        decide = gc.brute_force_equivalence if oracle else gc.decide_equivalence
        name = "equivalence." + decide.__name__

        def library(i):
            self.tracer.call(name, i, decide, self._load_state(i, a), self._load_state(i, b))

        argv = ["equiv", "--oracle", a, b] if oracle else ["equiv", a, b]
        return CliCase(argv, 0 if positive else 1, check, library)

    def _equiv(self, op: int, m: int, rng) -> CliCase:
        rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=m, seed=fam.recipe_seed(rng)))
        return self._equiv_case(op, rho, sigma, True, False)

    def _equiv_negative(self, op: int, m: int, rng) -> CliCase:
        rho, sigma = perturbed_pair(RandomStateRecipe(modes=m, seed=fam.recipe_seed(rng)))
        return self._equiv_case(op, rho, sigma, False, False)

    def _equiv_mixed(self, op: int, m: int, rng) -> CliCase:
        rho, _, unitary = equivalent_pair(RandomStateRecipe(modes=m, seed=fam.recipe_seed(rng)))
        return self._equiv_case(op, rho, self.spectrum_kept(op, "mixed", rho, unitary, rng),
                                False, False)

    def _equiv_rotated(self, op: int, m: int, rng) -> CliCase:
        rho, _, unitary = equivalent_pair(RandomStateRecipe(modes=m, seed=fam.recipe_seed(rng)))
        return self._equiv_case(op, rho, self.spectrum_kept(op, "mean-rotated", rho, unitary, rng),
                                False, False)

    def _equiv_oracle(self, op: int, m: int, rng) -> CliCase:
        # one mode keeps the oracle to a few milliseconds inside the process
        rho, sigma, _ = equivalent_pair(RandomStateRecipe(modes=1, seed=fam.recipe_seed(rng)))
        return self._equiv_case(op, rho, sigma, True, True)

    def _gen_pair(self, op: int, m: int, rng) -> CliCase:
        seed = fam.recipe_seed(rng)

        def check(doc):
            rho = gc.validate_state(doc["rho"]["cov"], doc["rho"]["mean"])
            sigma = gc.validate_state(doc["sigma"]["cov"], doc["sigma"]["mean"])
            cert = doc["certificate"]
            self._check_certificate(
                gc.IncoherentUnitary(tuple(cert["perm"]), tuple(cert["angles"])), rho, sigma)

        def library(i):
            self.tracer.call("sampling.equivalent_pair", i, equivalent_pair,
                             RandomStateRecipe(modes=m, seed=seed))

        return CliCase(["gen", "pair", "--modes", str(m), "--seed", str(seed)], 0, check, library)


WORKLOADS = {w.name: w for w in (DecideRandom, DecideSymmetric, Cli, Oracle)}
