#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and write a BENCH_<pr>.json.

Both revisions are extracted with ``git archive`` into a temporary directory,
so the checkout (its ``perfbench/`` included) is never written to.  For each
workload and pair, each side runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

in its own tree, one run at a time: odd pairs run the parent first, even pairs
the change.  The summary gives, for each end-to-end metric that the change's
``BENCHMARK.json`` declares, the medians and quartiles of both sides, the
change's relative difference, how many pairs the change won, whether the
medians differ by more than the parent's interquartile range, and a verdict
against the metric's bound (the change may be worse by at most that fraction
of the parent's median).  A run with a failed op fails the verdict.  Every run
is kept under ``pairs_by_run``.  Before the runs, each tree prints its output
digests once with

    python3 scripts/output_digest.py --seeds 1 2 3 --trials 40

and ``digest`` records both sides' group totals (null for a tree without the
script) and the names of the lines that moved.  Usage:

    python3 scripts/bench_pairs.py --parent REV [--change REV] --out BENCH_32.json
        [--workloads cli trials kernel] [--pairs 5] [--seconds 30] [--seed 7]
        [--claim TEXT] [--describe TEXT]
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
MACHINE_KEYS = ("python", "numpy", "blas", "blas_threads")
DIGEST = ["scripts/output_digest.py", "--seeds", "1", "2", "3", "--trials", "40"]


def _git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, check=True).stdout


def extract(repo: Path, rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` to ``dest`` with ``git archive``; return its commit."""
    commit = _git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git(repo, "archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_benchmark(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its environment (first stdout line) and its
    result (last line: ``attempted``, ``failed`` and ``metrics``)."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree.name}: {workload} run exited {done.returncode}: {done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    return {
        "environment": json.loads(lines[0])["environment"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_digest(tree: Path) -> dict | None:
    """The lines that ``DIGEST`` prints in ``tree``, as {name: digest}; None without the
    script."""
    if not (tree / DIGEST[0]).is_file():
        return None
    done = subprocess.run([sys.executable, *DIGEST], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree.name}: output_digest.py exited {done.returncode}: {done.stderr}")
    return dict(line.rsplit(" ", 1) for line in done.stdout.splitlines())


def compare_digests(lines: dict) -> dict:
    """Each side's total lines (null without digests) and the names of the lines whose digest
    differs between the sides, in the order printed (null unless both sides have digests)."""
    parent, change = (lines[side] for side in SIDES)
    moved = None
    if parent is not None and change is not None:
        moved = [n for n in dict.fromkeys([*parent, *change]) if parent.get(n) != change.get(n)]
    return {
        "command": "python3 " + " ".join(DIGEST),
        **{
            side: None if d is None else {n: v for n, v in d.items() if " total (" in n}
            for side, d in lines.items()
        },
        "moved": moved,
    }


def measure(trees: dict, workloads, pairs: int, seed: int, seconds: int, run) -> list:
    """Every run, in the order taken: per workload, pairs 1..N, odd pairs parent first."""
    runs = []
    for workload in workloads:
        for pair in range(1, pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                out = run(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side, **out})
    return runs


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload and seed, per end-to-end metric: both sides' medians and quartiles, the
    pairwise wins and the verdict against the metric's bound."""
    summary = {}
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        group = [r for r in runs if (r["workload"], r["seed"]) == key]
        by_pair = {(r["pair"], r["side"]): r for r in group}
        pairs = sorted({r["pair"] for r in group})
        failed = {side: sum(r["failed"] for r in group if r["side"] == side) for side in SIDES}
        metrics = {}
        for spec in end_to_end:
            name, higher = spec["name"], spec["better"] == "higher"
            values = {s: [by_pair[p, s]["metrics"][name] for p in pairs] for s in SIDES}
            parent, change = (statistics.median(values[s]) for s in SIDES)
            q = _quartiles(values["parent"])
            worse = (parent - change if higher else change - parent) / parent
            wins = sum(
                (c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"])
            )
            metrics[name] = {
                "parent_median": parent,
                "parent_quartiles": q,
                "change_median": change,
                "change_quartiles": _quartiles(values["change"]),
                "change_vs_parent": (change - parent) / parent,
                "change_wins": f"{wins}/{len(pairs)}",
                "beyond_parent_spread": abs(change - parent) > q[1] - q[0],
                "bound": spec["bound"],
                "within_bound": worse <= spec["bound"],
            }
        summary[f"{key[0]}_seed{key[1]}"] = {**metrics, "failed_ops": failed}
    return summary


def _cpu_model() -> str | None:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    models = (ln.split(":", 1)[1].strip() for ln in text.splitlines() if "model name" in ln)
    return next(models, None)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def main(argv=None, run=run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision measured against")
    parser.add_argument("--change", default="HEAD", help="the revision measured (HEAD)")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<pr>.json to write")
    parser.add_argument("--workloads", nargs="+", default=["cli", "trials", "kernel"])
    parser.add_argument("--pairs", type=_positive, default=5)
    parser.add_argument("--seconds", type=_positive, default=30)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--claim", default="none", help="the gain the change claims")
    parser.add_argument("--describe", default=None, help="what the change does")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {
            side: extract(ROOT, rev, trees[side])
            for side, rev in zip(SIDES, (args.parent, args.change))
        }
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        digest = compare_digests({side: run_digest(trees[side]) for side in SIDES})
        runs = measure(trees, args.workloads, args.pairs, args.seed, args.seconds, run)
    summary = summarize(runs, spec["end_to_end"])
    passed = all(
        m["within_bound"] for s in summary.values() for n, m in s.items() if n != "failed_ops"
    ) and not any(r["failed"] for r in runs)
    environment = runs[0]["environment"]
    doc = {
        "benchmark": "python3 perfbench/run.py --workload W --seed S "
        f"--seconds {args.seconds} --trace 0",
        "parent": commits["parent"][:7],
        "change": args.describe or commits["change"][:7],
        "change_commit": commits["change"][:7],
        "pairs": f"{', '.join(args.workloads)}: {args.pairs} pairs each at seed {args.seed}, "
        "alternating which side runs first (odd pairs parent first), one run at a time, on "
        "git archive copies of the parent and the change. Every run is under pairs_by_run.",
        "machine": {
            "cpus": environment.get("nproc"),
            "cpu_model": _cpu_model(),
            **{k: environment.get(k) for k in MACHINE_KEYS},
        },
        "claim": args.claim,
        "bounds": "every end-to-end metric of every workload within its BENCHMARK.json bound; "
        "no failed op in any run",
        "verdict": "within every bound" if passed else "outside a bound or with a failed op",
        "digest": digest,
        "summary": summary,
        "pairs_by_run": [{k: v for k, v in r.items() if k != "environment"} for r in runs],
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{args.out}: {doc['verdict']}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
