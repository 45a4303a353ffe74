"""gausscoh benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide-random --seed 1 --seconds 30 --trace 0

Run from anywhere; it benchmarks the sources in ``src/`` next to this
directory. With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run and writes its spans to
``perfbench/out/``. The last line of stdout is the result as JSON; the line
before it holds run metadata. The exit code is 0 only if every op passed
its check.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS pinned to one thread in every process the benchmark starts (2-core hosts)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: set-ups per untraced run; setup_s is their median
SETUPS = 5
#: a run ends, killed if need be, this many seconds after it starts
DEADLINE_S = 170

#: ``oracle`` runs by hand only; see README.md
WORKLOADS = ("decide-random", "decide-symmetric", "cli", "oracle")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "positive_p50_ms": "ms",
    "negative_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.williamson_spectrum.busy_ms": "ms",
    "core.is_incoherent_state.busy_ms": "ms",
    "equivalence.check_hypothesis.busy_ms": "ms",
    "equivalence.decide.prechecks_ms": "ms",
    "core.validate_state.busy_ms": "ms",
    "sampling.equivalent_pair.busy_ms": "ms",
    "sampling.perturbed_pair.busy_ms": "ms",
    "equivalence.apply_incoherent_unitary.busy_ms": "ms",
    "equivalence.decide_equivalence.busy_ms": "ms",
    "equivalence.decide.beyond_prechecks_ms": "ms",
    "equivalence.decide.witness.spectrum.count": "count",
    "equivalence.decide.witness.fingerprints.count": "count",
    "equivalence.decide.witness.search_exhausted.count": "count",
    "equivalence.decide.witness.coherence_mismatch.count": "count",
    "equivalence.residual_max": "1",
    "equivalence.brute_force_equivalence.busy_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.run_share": "ratio",
    "serialization.load_state.busy_ms": "ms",
    "serialization.load_channel.busy_ms": "ms",
    "coherence.relative_entropy_coherence.busy_ms": "ms",
    "channels.apply_channel.busy_ms": "ms",
    "channels.classify_incoherent.busy_ms": "ms",
    "channels.petz_recovery.busy_ms": "ms",
    "equivalence.is_frozen.busy_ms": "ms",
    "zoo.displaced_squeezed.busy_ms": "ms",
    "trace.ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "gausscoh" / "__init__.py").is_file():
        print(f"perfbench: no gausscoh sources in {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_worker(cmd + ["--setup-only"], env, deadline)[0])
        setup, report = run_worker(cmd, env, deadline)
        if report is None:
            raise BenchError("worker printed no report")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    if args.trace:
        metrics = {name: report["metrics"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = dict(report["metrics"], setup_s=statistics.median(setups))
        units = END_TO_END
    info = metadata(args) | report["info"]
    if not args.trace:
        info["setup_samples_s"] = setups
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if report["failed"] == 0 else 1


def run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time (start to "ready") and final report."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            killer.cancel()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, json.loads(lines[-1]) if lines else None


def metadata(args) -> dict:
    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def git_sha() -> str | None:
    """HEAD's commit; None outside a git checkout."""
    # the ceiling keeps git from taking up a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
