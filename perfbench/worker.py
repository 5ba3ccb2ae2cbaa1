"""One workload process: set up, warm up, then measure ops in a closed loop.

Started by ``run.py`` with BLAS pinned to one thread.  It prints ``READY``
once set-up (import, input generation and one warm-up op of each kind) is
done, which is where ``run.py`` stops the set-up clock, and then times the
reference task (``reference.py``) a few times to gauge the host's speed during
set-up; with ``--setup-only`` it prints that and exits.  Otherwise it
measures whole cycles of ops until ``--seconds`` have passed, each op followed
by one run of the reference task, and prints one JSON line with every op
sample.  With ``--trace 1`` the first half of the time is untraced and the
second half traced, which gives the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import reference


def _import_beyondcp(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import beyondcp

    if not Path(beyondcp.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported beyondcp from {beyondcp.__file__}, not from {src}")


SETUP_REFERENCE_RUNS = 10


def run_op(op, index: int, tracer=None) -> tuple[str, int, str | None, int]:
    """Time one op around its public call, then time the reference task, then
    check the op's result outside both intervals.

    Returns (kind, op ns, problem or None, reference ns).
    """
    if tracer is not None:
        tracer.begin_op(index)
    start = time.perf_counter_ns()
    try:
        result = op.call()
        problem = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problem = f"{op.kind}: raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    if tracer is not None and tracer.end_op() > elapsed:
        problem = problem or f"{op.kind}: traced self time exceeds the op wall time"
    reference_ns = reference.measure()
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    return op.kind, elapsed, problem, reference_ns


def run_phase(workload, seconds: float, tracer=None) -> list:
    """Run whole cycles until ``seconds`` of wall time have passed."""
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for op in workload.cycle():
            samples.append(run_op(op, len(samples), tracer))
    return samples


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def _ok_rate(samples) -> float:
    """Correct ops per second of reference-corrected time."""
    ok = sum(1 for _, _, problem, _ in samples if problem is None)
    return ok / (sum(ns / ref for _, ns, _, ref in samples) * reference.NOMINAL_NS / 1e9)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_beyondcp(args.root)
    import numpy as np

    import workloads

    workdir = args.root / ".perfbench_out" / f"work-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        warmup = [run_op(op, -1) for op in workload.cycle()]
        print("READY", flush=True)
        setup_reference_ns = [reference.measure() for _ in range(SETUP_REFERENCE_RUNS)]
        if args.setup_only:
            print(json.dumps({"setup_reference_ns": setup_reference_ns}), flush=True)
            return 0
        out = {
            "setup_reference_ns": setup_reference_ns,
            "environment": _environment(np),
            "description": workloads.DESCRIPTIONS[args.workload],
            "warmup": warmup,
        }
        if args.trace:
            import tracer as tracing

            untraced = run_phase(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = run_phase(workload, args.seconds / 2, tracer)
            wall_ns = sum(ns for _, ns, _, _ in traced)
            layers = tracing.layer_metrics(tracer, len(traced), wall_ns)
            layers["trace.overhead"] = _ok_rate(traced) / _ok_rate(untraced)
            out.update(samples=untraced + traced, layers=layers)
            spans = args.root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
        else:
            out["samples"] = run_phase(workload, args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
