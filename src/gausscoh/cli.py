"""Command-line front end.

Every subcommand reads/writes single JSON documents. Exit codes:
0 success, 1 negative domain verdict (not equivalent / not incoherent /
not frozen), 2 input error (also an input too large to allocate), 3 numeric
error. Each subcommand imports the modules it uses inside its branch of
``_dispatch``, so that a call loads no more of the package than it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import serialization as ser
from .core import checked_tol
from .errors import GaussCohError, NumericError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _tolerance(flag: str | None) -> float | None:
    """The ``--tol`` flag, else ``GAUSS_COHERENCE_TOL``; finite and >= 0."""
    raw = flag if flag is not None else os.environ.get("GAUSS_COHERENCE_TOL")
    return checked_tol(raw) if raw else None


def _parse_floats(raw: str) -> list[float]:
    return [float(x) for x in raw.split(",") if x.strip()]


def _parse_complex(raw: str) -> complex:
    """Parse 're,im' or a plain real number."""
    parts = _parse_floats(raw)
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise ValueError(f"expected 're' or 're,im', got {raw!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are JSON input errors on stderr."""

    def error(self, message):
        _emit_error("ArgumentError", message)
        sys.exit(EXIT_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gausscoh",
        description="Gaussian-state coherence, incoherent channels, and "
        "equivalence certificates in phase space.",
    )
    parser.add_argument(
        "--tol", default=None, help="tolerance override, finite and >= 0"
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a state document")
    p.add_argument("state")

    p = sub.add_parser("coherence", help="coherence report for a state")
    p.add_argument("state")

    p = sub.add_parser("spectrum", help="symplectic eigenvalues of a state")
    p.add_argument("state")

    p = sub.add_parser("apply", help="apply a channel to a state")
    p.add_argument("channel")
    p.add_argument("state")

    p = sub.add_parser("classify", help="incoherence classification of a channel")
    p.add_argument("channel")

    p = sub.add_parser("petz", help="Petz recovery channel for a thermal reference")
    p.add_argument("channel")
    p.add_argument(
        "--thermal", required=True, help="comma-separated reference occupations"
    )

    p = sub.add_parser("equiv", help="decide incoherent equivalence of two states")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--oracle", action="store_true", help="use the brute-force search oracle"
    )

    p = sub.add_parser("frozen", help="frozen-coherence check for a strict channel")
    p.add_argument("state")
    p.add_argument("channel")

    p = sub.add_parser("make", help="emit a canonical state document")
    mk = p.add_subparsers(dest="family", required=True)
    q = mk.add_parser("thermal")
    q.add_argument("--n", required=True, help="comma-separated occupations")
    q = mk.add_parser("coherent")
    q.add_argument("--alpha", required=True, help="displacement 're,im'")
    q = mk.add_parser("squeezed")
    q.add_argument("--alpha", default="0", help="displacement 're,im'")
    q.add_argument("--beta", required=True, help="squeezing 're,im'")
    q = mk.add_parser("standard-form")
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--c", type=float, required=True)
    q.add_argument("--d-corr", type=float, required=True)
    q.add_argument("--mean", default=None, help="comma-separated mean of length 4")

    p = sub.add_parser(
        "sample-class", help="two equivalence-class members of a two-mode state"
    )
    p.add_argument("state")
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--theta2", type=float, required=True)

    p = sub.add_parser("gen", help="random fixtures")
    p.add_argument("kind", choices=["state", "pair"])
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _dispatch(args, tol) -> tuple[dict, int]:
    if args.command == "validate":
        state = ser.load_state(args.state, tol)
        return ser.state_to_dict(state), EXIT_OK

    if args.command == "coherence":
        from .coherence import relative_entropy_coherence
        report = relative_entropy_coherence(ser.load_state(args.state, tol))
        doc = {
            "n_bar": report.n_bar,
            "entropy": report.entropy,
            "c_rel_ent": report.c_rel_ent,
            "reference": ser.state_to_dict(report.reference),
        }
        return doc, EXIT_OK

    if args.command == "spectrum":
        state = ser.load_state(args.state, tol)
        return {"symplectic_eigenvalues": state.spectrum.tolist()}, EXIT_OK

    if args.command == "apply":
        from .channels import apply_channel
        out = apply_channel(ser.load_channel(args.channel, tol), ser.load_state(args.state, tol))
        return ser.state_to_dict(out), EXIT_OK

    if args.command == "classify":
        from .channels import classify_incoherent
        cls = classify_incoherent(ser.load_channel(args.channel, tol), tol)
        doc: dict = {"verdict": cls.verdict}
        if cls.reason is not None:
            doc["reason"] = cls.reason
        if cls.spec is not None:
            doc["spec"] = dataclasses.asdict(cls.spec)
        return doc, EXIT_OK if cls.is_incoherent else EXIT_NEGATIVE

    if args.command == "petz":
        from .channels import petz_recovery
        from .zoo import thermal
        channel = ser.load_channel(args.channel, tol)
        reference = thermal(_parse_floats(args.thermal))
        return ser.channel_to_dict(petz_recovery(channel, reference)), EXIT_OK

    if args.command == "equiv":
        from .equivalence import (
            AllIncoherent, Equivalent, HypothesisViolated, NotEquivalent,
            brute_force_equivalence, decide_equivalence,
        )
        rho = ser.load_state(args.a, tol)
        sigma = ser.load_state(args.b, tol)
        decide = brute_force_equivalence if args.oracle else decide_equivalence
        verdict = decide(rho, sigma, tol=tol)
        if isinstance(verdict, Equivalent):
            doc = {
                "verdict": "equivalent",
                **dataclasses.asdict(verdict.certificate),
                "residual": verdict.residual,
            }
            return doc, EXIT_OK
        if isinstance(verdict, AllIncoherent):
            return {"verdict": "all-incoherent"}, EXIT_OK
        if isinstance(verdict, HypothesisViolated):
            doc = {"verdict": "hypothesis-violated", **dataclasses.asdict(verdict)}
            return doc, EXIT_OK
        assert isinstance(verdict, NotEquivalent)
        doc = {"verdict": "not-equivalent", "witness": verdict.witness}
        if verdict.best_residual is not None:
            doc["best_residual"] = verdict.best_residual
        return doc, EXIT_NEGATIVE

    if args.command == "frozen":
        from .equivalence import is_frozen
        report = is_frozen(ser.load_state(args.state, tol), ser.load_channel(args.channel, tol))
        doc = {
            "frozen": report.frozen,
            "coherence_in": report.coherence_in,
            "coherence_out": report.coherence_out,
        }
        if report.certificate is not None:
            doc["certificate"] = dataclasses.asdict(report.certificate)
        return doc, EXIT_OK if report.frozen else EXIT_NEGATIVE

    if args.command == "make":
        from .zoo import coherent, displaced_squeezed, thermal, two_mode_standard_form
        if args.family == "thermal":
            state = thermal(_parse_floats(args.n))
        elif args.family == "coherent":
            state = coherent(_parse_complex(args.alpha))
        elif args.family == "squeezed":
            state = displaced_squeezed(_parse_complex(args.alpha), _parse_complex(args.beta))
        else:
            mean = _parse_floats(args.mean) if args.mean else None
            state = two_mode_standard_form(args.a, args.b, args.c, args.d_corr, mean)
        return ser.state_to_dict(state), EXIT_OK

    if args.command == "sample-class":
        from .zoo import equivalence_class_samples
        state = ser.load_state(args.state, tol)
        plain, swapped = equivalence_class_samples(state, args.theta1, args.theta2)
        doc = {"plain": ser.state_to_dict(plain), "swapped": ser.state_to_dict(swapped)}
        return doc, EXIT_OK

    if args.command == "gen":
        from .sampling import RandomStateRecipe, equivalent_pair, random_state
        recipe = RandomStateRecipe(modes=args.modes, seed=args.seed)
        if args.kind == "state":
            return ser.state_to_dict(random_state(recipe)), EXIT_OK
        rho, sigma, cert = equivalent_pair(recipe)
        doc = {
            "rho": ser.state_to_dict(rho),
            "sigma": ser.state_to_dict(sigma),
            "certificate": dataclasses.asdict(cert),
        }
        return doc, EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = _dispatch(args, _tolerance(args.tol))
    except NumericError as exc:
        _emit_error("numeric-error", exc)
        return EXIT_NUMERIC
    # RecursionError: a JSON document nested too deeply to parse;
    # MemoryError: an input, such as a mode count, too large to allocate
    except (GaussCohError, OSError, ValueError, RecursionError, MemoryError) as exc:
        _emit_error(type(exc).__name__, exc)
        return EXIT_INPUT
    print(ser.dumps(doc, pretty=args.pretty))
    return code


def _emit_error(kind: str, exc: Exception | str) -> None:
    print(
        json.dumps({"error": {"kind": kind, "detail": str(exc)}}),
        file=sys.stderr,
    )


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
