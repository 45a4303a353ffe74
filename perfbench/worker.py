"""One workload process: set up, say "ready", run the timed loop, report.

Started by ``run.py`` with BLAS pinned to one thread. Prints ``ready`` on
stdout when set-up is done and, unless ``--setup-only``, one JSON line with
the run's figures at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

#: interpreter probes per traced run, for cli.interpreter_ms and cli.import_ms
PROBES = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    tracer = Tracer()
    workdir = args.out / f"docs-{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, workdir)
    try:
        loop = Loop(workload)
        for op in workload.warmup_ops():
            loop.check(op, workload.execute(op))
        if loop.failed:
            raise RuntimeError("a warm-up op failed")
        loop.refill()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        report = loop.run(args.seconds, traced=bool(args.trace))
        if args.trace:
            report["metrics"] = layer_metrics(loop, workload, tracer)
            spans = args.out / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans)
            report["info"]["spans"] = str(spans)
        else:
            report["metrics"] = end_to_end_metrics(loop, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


class Loop:
    """The closed loop: next op, time it, check it; one client, no overlap."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.queue: list[workloads.Op] = []
        self.next_block = 0
        self.failed = 0
        self.latencies: list[tuple[int, bool]] = []  # (ns, planted truth)
        self.traced: list[int] = []
        self.untraced_ops_per_s = 0.0

    def refill(self) -> None:
        self.queue = self.workload.block(self.next_block)[::-1]
        self.next_block += 1

    def fail(self, op: workloads.Op, exc: Exception) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"op {op.index} ({op.kind}, m={op.modes}) failed: {exc!r}", file=sys.stderr)

    def check(self, op: workloads.Op, result) -> bool:
        try:
            if isinstance(result, Exception):
                raise result
            self.workload.check(op, result)
        except Exception as exc:  # every way an op can fail counts against it
            self.fail(op, exc)
            return False
        return True

    def run(self, seconds: float, traced: bool) -> dict:
        tracer = self.workload.tracer
        start = time.perf_counter()
        # a traced run times its first half untraced, for the tracing overhead
        trace_from = start + seconds / 2 if traced else None
        untraced_ns = untraced_ops = 0
        # whole blocks only, so that each kind of op runs equally often
        while self.queue or time.perf_counter() < start + seconds:
            if trace_from is not None and not tracer.enabled and time.perf_counter() >= trace_from:
                untraced_ns = sum(ns for ns, _ in self.latencies)
                untraced_ops = len(self.latencies)
                tracer.enabled = True
            if not self.queue:
                self.refill()
            op = self.queue.pop()
            t0 = time.perf_counter_ns()
            try:
                result = self.workload.execute(op)
            except Exception as exc:  # the op raised: a failure, not a crash
                result = exc
            elapsed = time.perf_counter_ns() - t0
            self.latencies.append((elapsed, op.positive))
            ok = self.check(op, result)
            if tracer.enabled:
                self.traced.append(elapsed)
            if tracer.enabled and ok:
                try:
                    with tracer.span("harness.extras", op.index):
                        self.workload.traced_extras(op)
                except Exception as exc:  # e.g. the in-process CLI disagreeing
                    self.fail(op, exc)
        ops = len(self.latencies)
        info = {"ops": ops, "failed": self.failed, "fail_ratio": self.failed / max(ops, 1),
                "positives": sum(p for _, p in self.latencies)}
        if traced:
            self.untraced_ops_per_s = untraced_ops / max(untraced_ns, 1) * 1e9
            info["traced_ops"] = len(self.traced)
        return {"ops": ops, "failed": self.failed, "info": info}


def _ms(ns: list[int]) -> float:
    return statistics.median(ns) / 1e6 if ns else 0.0


def end_to_end_metrics(loop: Loop, name: str) -> dict:
    lat = [ns for ns, _ in loop.latencies]
    pos = [ns for ns, p in loop.latencies if p]
    neg = [ns for ns, p in loop.latencies if not p]
    # the CLI workload's memory is that of its CLI processes
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return {
        "ops_per_s": len(lat) / sum(lat) * 1e9,
        "latency_p50_ms": _ms(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] / 1e6 if len(lat) > 1 else _ms(lat),
        "positive_p50_ms": _ms(pos),
        "negative_p50_ms": _ms(neg),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def interpreter_probes(tracer: Tracer) -> None:
    """Spans for ``python -c pass`` and ``python -c "import gausscoh"``."""
    for _ in range(PROBES):
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import gausscoh")):
            with tracer.span(name, -1):
                subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def layer_metrics(loop: Loop, workload: workloads.Workload, tracer: Tracer) -> dict:
    interpreter_probes(tracer)
    ops = max(len(loop.traced), 1)
    busy = {name: ns / ops / 1e6 for name, ns in tracer.busy_ns().items()}

    def per_op(name: str) -> float:
        return busy.get(name, 0.0)

    metrics = {}
    if isinstance(workload, workloads.DecideWorkload):
        # the same calls decide_equivalence makes before it searches
        prechecks = sum(per_op(f) for f in ("core.williamson_spectrum", "core.is_incoherent_state",
                                            "equivalence.check_hypothesis"))
        metrics["equivalence.decide.prechecks_ms"] = prechecks
        metrics["equivalence.decide.beyond_prechecks_ms"] = (
            per_op("equivalence.decide_equivalence") - prechecks)
    interpreter = _ms(tracer.durations_ns("cli.interpreter"))
    traced_ops_per_s = len(loop.traced) / max(sum(loop.traced), 1) * 1e9
    metrics |= {
        "equivalence.residual_max": workload.residual_max,
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": _ms(tracer.durations_ns("cli.import")) - interpreter,
        "cli.run_ms": per_op("cli.run"),
        "cli.run_share": per_op("cli.run") / per_op("cli.process") if "cli.process" in busy else 0.0,
        "trace.ops_per_s": traced_ops_per_s,
        "trace.overhead_ratio": loop.untraced_ops_per_s / traced_ops_per_s if loop.traced else 0.0,
    }
    for name in busy:
        if name not in ("cli.run", "cli.process", "cli.interpreter", "cli.import"):
            metrics[f"{name}.busy_ms"] = per_op(name)
    for key, count in workload.witnesses.items():
        metrics[f"equivalence.decide.witness.{key}.count"] = count
    return metrics


if __name__ == "__main__":
    sys.exit(main())
