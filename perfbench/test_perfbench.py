"""Self-test of the benchmark harness: ``python3 -m pytest -q perfbench``.

Short runs of every workload must print every metric that BENCHMARK.json
names, with its unit; a deliberately wrong answer must be counted as an
error; times must be rescaled by the reference task; and without the
package sources the benchmark must fail without printing a result.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines)
    assert "error_rate 0 fraction" in proc.stdout
    environment = json.loads(lines[0])["environment"]
    assert environment["blas_threads"] == 1 and environment["blas_threads_reason"]


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench("--workload", "cli", "--seed", "3", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert result["metrics"]["cli.calls"]["value"] == 1.0
    assert 0 < result["metrics"]["trace.overhead"]["value"] <= 1.5


@pytest.fixture(scope="module")
def kernel_2x4_op():
    import beyondcp as bc
    from beyondcp.sampling import haar_unitary

    rng = np.random.default_rng(5)
    family = bc.UnitaryFamily(tuple(haar_unitary((2, 4), rng) for _ in range(4)))
    return workloads.KernelWorkload._kernel_op(family, bc.SpaceLayout((2, 4)))


def test_kernel_with_a_dropped_column_is_an_error(kernel_2x4_op):
    op = kernel_2x4_op
    assert worker.run_op(op, 0)[2] is None
    basis = op.call().basis_matrix()
    wrong = workloads.Op(op.kind, lambda: SimpleNamespace(basis_matrix=lambda: basis[:, :-1]), op.check)
    assert "dimension" in worker.run_op(wrong, 1)[2]


def test_flipped_witness_verdict_is_an_error():
    import beyondcp as bc
    from beyondcp import catalog

    args = ("witness", catalog.gibbs_subspace(), bc.UnitaryFamily((bc.identity((2, 2)),)))
    right = workloads.KernelWorkload._witness_op(*args, True)
    flipped = workloads.KernelWorkload._witness_op(*args, False)
    assert worker.run_op(right, 0)[2] is None
    assert "expected False" in worker.run_op(flipped, 1)[2]


def _main_on(monkeypatch, samples, setup_s, setup_reference_ns) -> str:
    """Stdout of ``run.main`` over a worker that returns ``samples``."""
    fake = {
        "environment": {},
        "description": {},
        "warmup": [],
        "setup_reference_ns": [setup_reference_ns],
        "samples": samples,
        "peak_rss_mb": 1.0,
    }
    monkeypatch.setattr(run, "run_worker", lambda *a: (setup_s, fake))
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "kernel", "--seed", "0", "--seconds", "1"])
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main() == 0
    return out.getvalue()


def test_errors_reach_the_result_line(kernel_2x4_op, monkeypatch):
    op = kernel_2x4_op
    wrong = workloads.Op(op.kind, lambda: None, op.check)  # check raises on None
    samples = [list(worker.run_op(op, 0)), list(worker.run_op(wrong, 1))]
    out = _main_on(monkeypatch, samples, 0.5, 7_000_000)
    result = json.loads(out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        "--workload", "kernel", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_rescaled_by_the_reference_task(monkeypatch):
    nominal = worker.reference.NOMINAL_NS
    # the host runs at half speed: every op and every reference run takes twice as long
    samples = [["op", 2 * ms * 1_000_000, None, 2 * nominal] for ms in (10, 20, 30)]
    out = _main_on(monkeypatch, samples, 0.8, 2 * nominal)
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(20.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 0.060)
    assert metrics["setup_s"]["value"] == pytest.approx(0.4)
    assert "(raw) wall_latency_p50_ms 40 ms" in out
