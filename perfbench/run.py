"""Benchmark of the beyondcp pipeline: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli,trials,kernel} --seed N --seconds S --trace {0,1}

Each workload runs in a fresh child process (``worker.py``) with one client
in a closed loop and BLAS pinned to one thread.  Every op is timed around its
call into the public API and checked by an oracle outside the timed interval.
The host's speed drifts, so each op's wall time is rescaled by the time of a
fixed reference task run right after it (``reference.py``); the end-to-end
times are these corrected times, and the raw wall times are printed beside
them and kept in the result file.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The lines
before it record the run environment and the workload.  The full result, and
the spans of a traced run, are written under ``.perfbench_out/``.

Self-test: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "trials", "kernel")
SETUP_RUNS = 5  # set-up is measured this many times per run; the median is reported
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

BLAS_THREADS = 1
BLAS_THREADS_REASON = (
    "On a 2-core machine 1 thread was as fast or faster on every op measured "
    "((4,4) kernel 0.73 s vs 0.79-0.82 s with 2 threads, witness 0.14-0.16 s vs "
    "0.17-0.21 s) and avoids a ~0.9 s first-call start-up cost; it is the plain "
    "single-threaded baseline."
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = str(BLAS_THREADS)
    env.pop("BEYONDCP_SEED", None)  # it would override every command's --seed
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: argparse.Namespace, setup_only: bool, deadline: float):
    """Start one worker; return (set-up wall seconds, its last output line as JSON)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with code {code} before finishing")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def source_identity() -> dict:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _timings(prefix: str, op_ms: list[float], setup_s: list[float], good: int) -> dict:
    return {
        f"{prefix}ops_per_s": good / (sum(op_ms) / 1e3),
        f"{prefix}latency_p50_ms": statistics.median(op_ms),
        f"{prefix}latency_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
        f"{prefix}setup_s": statistics.median(setup_s),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "beyondcp" / "__init__.py").is_file():
        print(f"error: no beyondcp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup_only_runs = 0 if args.trace else SETUP_RUNS - 1
        setups = [run_worker(args, True, deadline) for _ in range(setup_only_runs)]
        setups.append(run_worker(args, False, deadline))
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = setups[-1][1]

    checked = result["warmup"] + result["samples"]
    problems = [p for _, _, p, _ in checked if p is not None]
    for problem in sorted(set(problems)):
        print(f"FAILED {problem}", file=sys.stderr)

    samples = result["samples"]
    good = sum(1 for _, _, p, _ in samples if p is None)
    wall_ms = [ns / 1e6 for _, ns, _, _ in samples]
    corrected_ms = [ns / ref * reference.NOMINAL_NS / 1e6 for _, ns, _, ref in samples]
    setup_wall = [s for s, _ in setups]
    setup_corrected = [
        s * reference.NOMINAL_NS / statistics.median(out["setup_reference_ns"]) for s, out in setups
    ]
    # every time below is corrected for the host's speed; the wall_* twins are raw
    end_to_end = {
        **_timings("", corrected_ms, setup_corrected, good),
        **_timings("wall_", wall_ms, setup_wall, good),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:  # half of these samples ran traced, so no end-to-end figures
        values, units, end_to_end = result["layers"], tracing.UNITS, {}
    else:
        values, units = end_to_end, END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "description": result["description"],
        "environment": {
            **result["environment"],
            "blas_threads_reason": BLAS_THREADS_REASON,
            **source_identity(),
        },
        "reference_nominal_ms": reference.NOMINAL_NS / 1e6,
        "samples_per_kind": {},  # kind -> [wall ms, corrected ms] per op
        "error_rate": len(problems) / len(checked),
        "end_to_end": end_to_end,
        "metrics": metrics,
    }
    for (kind, _, _, _), wall, corrected in zip(samples, wall_ms, corrected_ms):
        record["samples_per_kind"].setdefault(kind, []).append([wall, corrected])
    record["setup_s_samples"] = [list(pair) for pair in zip(setup_wall, setup_corrected)]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print(json.dumps({k: record[k] for k in ("workload", "seed", "description", "environment")}))
    print(
        f"{args.workload}: {len(samples)} ops timed, "
        f"error_rate {record['error_rate']:.4g} fraction, setup samples {len(setups)}, "
        f"reference task median {statistics.median(s[3] for s in samples) / 1e6:.4g} ms "
        f"(nominal {reference.NOMINAL_NS / 1e6:.4g} ms)"
    )
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for name, unit in END_TO_END_UNITS.items():
        if f"wall_{name}" in end_to_end:
            print(f"  (raw) wall_{name} {end_to_end[f'wall_{name}']:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(checked),
                "failed": len(problems),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
