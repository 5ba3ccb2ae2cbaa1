import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beyondcp.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--pairs", "0", "must be a positive integer"),
        ("--pairs", "-3", "must be a positive integer"),
        ("--seed", "-1", "must be a non-negative integer"),
    ],
    ids=["0", "-3", "seed-1"],
)
def test_run_violations_rejects_empty_sample(flag, value, message):
    result = _run_script("run_violations.py", flag, value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"argument {flag}: {message}" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "epsilon,message",
    [
        ("1e-9", "--epsilons 1e-09 is below 4.44e-07, the smallest epsilon whose constructions"),
        ("0", "epsilon must lie in (0, 1], got 0.0"),
    ],
)
def test_run_violations_refuses_epsilon_as_the_cli_does(epsilon, message):
    result = _run_script("run_violations.py", "--epsilons", "0.5", epsilon, "--pairs", "2")
    assert result.returncode == 2
    assert result.stdout == ""  # refused before the header
    assert f"run_violations.py: error: {message}" in result.stderr
    assert "Traceback" not in result.stderr


def test_run_violations_prints_an_undefined_entropy_ratio_at_the_epsilon_floor():
    result = _run_script("run_violations.py", "--epsilons", "5e-7", "--pairs", "2")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1].split()[3] == "undefined"


def test_run_violations_prints_small_epsilons_apart():
    result = _run_script("run_violations.py", "--epsilons", "1e-4", "1e-5", "--pairs", "2")
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["0.0001", "1e-05"]


def test_run_violations_rows_keep_the_header_columns():
    result = _run_script("run_violations.py", "--epsilons", "0.5", "1e-4", "1e-5", "--pairs", "3")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    labels = ["eps", "1/eps", "trace-norm ratio", "uhlmann min ratio", "cptp control max"]
    ends, start = [], 0
    for label in labels:  # every column is right-aligned, so it ends where its label does
        start = header.index(label, start) + len(label)
        ends.append(start)
    assert len(rows) == 3
    for row in rows:
        assert [m.end() for m in re.finditer(r"\S+", row)] == ends, row


def test_run_violations_row_matches_the_cli_violations_report(capsys, monkeypatch):
    monkeypatch.delenv("BEYONDCP_SEED", raising=False)  # it would override --seed in run_cli
    eps, pairs, seed = "0.2", "6", "11"
    result = _run_script("run_violations.py", "--epsilons", eps, "--pairs", pairs, "--seed", seed)
    assert result.returncode == 0, result.stderr
    row = result.stdout.splitlines()[1].split()
    assert run_cli(["violations", "--epsilon", eps, "--pairs", pairs, "--seed", seed]) == 1
    contraction, uhlmann, control = (
        v["details"]["ratios"] for v in json.loads(capsys.readouterr().out)["verdicts"]
    )
    assert row[2:] == [
        f"{np.mean(contraction):.6f}",
        f"{min(uhlmann):.6f}",
        f"{max(control):.6f}",
    ]


def test_reproduce_catalog_stops_with_the_cli_input_error():
    result = _run_script("reproduce_catalog.py", "--epsilon", "0")
    assert result.returncode == 2
    assert "error: epsilon must lie in (0, 1], got 0.0" in result.stderr
    assert "Traceback" not in result.stderr
    assert "repolarizer" not in result.stdout  # no summary of a report that was not written


def test_reproduce_catalog_json_blocks_are_the_cli_stdout(capsys, monkeypatch):
    monkeypatch.delenv("BEYONDCP_SEED", raising=False)
    result = _run_script("reproduce_catalog.py", "--json")
    assert result.returncode == 0, result.stderr
    sections = result.stdout.split("== ")[1:]
    assert len(sections) == 7
    for section in sections:
        header, rest = section.split("\n", 1)
        argv, code = header.rsplit(" (exit ", 1)
        block = rest[rest.index("{\n"):]
        assert run_cli(argv.split()) == int(code.rstrip(")"))
        assert block == capsys.readouterr().out, argv


def test_output_digest_is_deterministic():
    runs = [_run_script("output_digest.py", "--seeds", "1", "--trials", "2") for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 15 + 1 + 2 + 1  # the cli commands at one seed, two trials, two totals
    assert lines[15].startswith("cli total (15 items) ")
    assert lines[-1].startswith("trials total (2 items) ")


@pytest.mark.parametrize("seed", [7, 11])
def test_cli_workload_oracle_accepts_one_cycle(seed, tmp_path, monkeypatch):
    """The benchmark's cli oracle expects each command's exact verdict names and flags, so a
    verdict added to a report must be added there too, or the benchmark counts an error."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # as scripts/output_digest.py does
    monkeypatch.delenv("BEYONDCP_SEED", raising=False)  # it would override each --seed
    ops = importlib.import_module("workloads").CliWorkload(seed, tmp_path).cycle()
    assert len(ops) == 15
    for op in ops:
        assert op.check(op.call()) is None


@pytest.mark.parametrize("seed", [7, 11])
def test_kernel_workload_oracle_accepts_one_cycle(seed, monkeypatch):
    """The benchmark's kernel oracle checks each kernel's dimension and residual against an
    independent SVD of the full stack [T; T S_1; ...], so a wrong row drop fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    ops = importlib.import_module("workloads").KernelWorkload(seed).cycle()
    assert [op.kind for op in ops] == [
        "kernel_2x4", "kernel_4x4", "witness_gibbs", "witness_haar", "kernel_2x4"
    ]
    for op in ops:
        assert op.check(op.call()) is None


@pytest.mark.parametrize("seed", [7, 11])
def test_trials_workload_oracle_accepts_five_cycles(seed, monkeypatch):
    """Each trial derives three maps and verifies a SWAP representation, so a wrong
    derivation or verdict fails here, not first in the benchmark."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workload = importlib.import_module("workloads").TrialsWorkload(seed)
    for _ in range(5):
        (op,) = workload.cycle()
        assert op.check(op.call()) is None


def test_size_ladder_checks_and_times_the_two_smallest_rungs():
    result = _run_script("size_ladder.py", "--sizes", "2x2", "2x4", "--repeat", "2")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["machine"]["blas_threads"] == 1 and doc["machine"]["numpy"] == np.__version__
    assert [(r["dims"], r["kernel_dim"]) for r in doc["rungs"]] == [([2, 2], 0), ([2, 4], 48)]
    for r in doc["rungs"]:
        assert list(r["calls"]) == ["subspace", "consistent_kernel", "is_family_consistent"]
        for call in r["calls"].values():
            assert call["status"] == "ok", call
            assert 0 < call["min_s"] < 1 and call["tracemalloc_peak_mb"] > 0


def test_size_ladder_records_the_minor_page_faults_of_each_traced_call():
    result = _run_script("size_ladder.py", "--sizes", "2x2", "2x4", "--repeat", "1")
    assert result.returncode == 0, result.stderr
    for r in json.loads(result.stdout)["rungs"]:
        for call in [*r["calls"].values(), *r["maps"].values()]:
            assert call["status"] == "ok", call
            assert type(call["minor_faults"]) is int and call["minor_faults"] >= 0


def test_size_ladder_checks_and_times_a_derived_map_on_each_rung():
    result = _run_script("size_ladder.py", "--sizes", "2x2", "2x4", "--repeat", "1")
    assert result.returncode == 0, result.stderr
    for r in json.loads(result.stdout)["rungs"]:
        assert list(r["maps"]) == ["derive_map", "check_state_spanned", "transformation_space"]
        for call in r["maps"].values():
            assert call["status"] == "ok", call
            assert 0 < call["min_s"] < 1 and call["tracemalloc_peak_mb"] > 0


def test_size_ladder_checks_and_times_a_kraus_dilation_on_each_rung():
    result = _run_script("size_ladder.py", "--sizes", "2x2", "2x4", "--repeat", "1")
    assert result.returncode == 0, result.stderr
    for r in json.loads(result.stdout)["rungs"]:
        names = ["kraus_dilation", "verify_representation", "swap_representation"]
        assert list(r["dilations"]) == names
        for call in r["dilations"].values():
            assert call["status"] == "ok", call
            assert 0 < call["min_s"] < 1 and call["tracemalloc_peak_mb"] > 0


def test_size_ladder_checks_and_times_subspace_calls_on_each_rung():
    result = _run_script("size_ladder.py", "--sizes", "2x2", "2x4", "--repeat", "1")
    assert result.returncode == 0, result.stderr
    for r in json.loads(result.stdout)["rungs"]:
        names = ["subspace_sum", "subspace_intersection", "kernel_of_partial_trace"]
        assert list(r["subspaces"]) == names
        for call in r["subspaces"].values():
            assert call["status"] == "ok", call
            assert 0 < call["min_s"] < 1 and call["tracemalloc_peak_mb"] > 0


SUBSPACE_CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import size_ladder as ladder
from beyondcp import SpaceLayout, UnitaryFamily, consistent_kernel, subspace_sum
from beyondcp.sampling import haar_unitary
rng = np.random.default_rng(1)
k1, k2 = (
    consistent_kernel(UnitaryFamily(tuple(haar_unitary((2, 4), rng) for _ in range(4))),
                      SpaceLayout((2, 4)))
    for _ in range(2)
)
b = subspace_sum(k1, k2).basis_matrix()
b1 = k1.basis_matrix()
print(ladder.subspace_problem("subspace_sum", b, b.shape[1], (b, b), (b1, b)))
print(ladder.subspace_problem("subspace_sum", b[:, 1:], b.shape[1], (b1, b[:, 1:])))
print(ladder.subspace_problem("subspace_sum", b[:, 1:], b.shape[1] - 1, (b1, b[:, 1:])))
off = b.copy()
off[:, 0] = np.eye(64)[0]  # the vec of |0><0|, whose bath trace is not zero
print(ladder.subspace_problem("kernel_of_partial_trace", off, b.shape[1], (off, b)))
"""


def test_size_ladder_refuses_a_subspace_off_its_references():
    paths = [str(ROOT / d) for d in ("src", "scripts", "perfbench")]
    result = subprocess.run(
        [sys.executable, "-c", SUBSPACE_CHECK, *paths], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "None"
    assert lines[1] == "subspace_sum: dimension 59, expected 60"
    assert lines[2].startswith("subspace_sum: a column lies ")
    assert lines[2].endswith(" outside the span it must lie in")
    assert lines[3].startswith("kernel_of_partial_trace: a column lies ")


DILATION_CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import size_ladder as ladder
from beyondcp import RepresentationVerdict, kraus_dilation
from beyondcp.sampling import random_kraus_channel
kraus = random_kraus_channel(2, 4, np.random.default_rng(1))
rep = kraus_dilation(kraus)
s = sum(np.kron(m.entries.conj(), m.entries) for m in kraus)
for factor in (1.0, 1 + 1e-11, 1 + 1e-8):
    print(ladder.dilation_problem(rep, s * factor))
print(ladder.verdict_problem(RepresentationVerdict(True, 0.0, 0.0, 0.0)))
print(ladder.verdict_problem(RepresentationVerdict(False, 0.0, 0.5, 0.0)))
"""


def test_size_ladder_refuses_a_kraus_dilation_off_its_superoperator():
    paths = [str(ROOT / d) for d in ("src", "scripts", "perfbench")]
    result = subprocess.run(
        [sys.executable, "-c", DILATION_CHECK, *paths], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:2] == ["None", "None"]
    assert lines[2].startswith("kraus_dilation: derived map ")
    assert lines[2].endswith(" from sum conj(M) (x) M")
    assert lines[3] == "None"
    assert lines[4] == "verify_representation: not passed, max residual 0.5"


SWAP_CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import size_ladder as ladder
from beyondcp import kraus_dilation, map_from_kraus, swap_representation
from beyondcp.sampling import axis_grid_states, random_kraus_channel
kraus = random_kraus_channel(2, 4, np.random.default_rng(1))
target = map_from_kraus(kraus)
s = sum(np.kron(m.entries.conj(), m.entries) for m in kraus)
rep = swap_representation(target, axis_grid_states(2))
print(rep.subspace.dim)
print(ladder.swap_problem(rep, target, s))
print(ladder.swap_problem(rep, target, s * (1 + 1e-8)))
print(ladder.swap_problem(kraus_dilation(kraus), target, s))  # a valid triple off the sector
"""


def test_size_ladder_refuses_a_swap_representation_off_its_references():
    paths = [str(ROOT / d) for d in ("src", "scripts", "perfbench")]
    result = subprocess.run(
        [sys.executable, "-c", SWAP_CHECK, *paths], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:2] == ["10", "None"]
    assert lines[2].startswith("swap_representation: derived map ")
    assert lines[2].endswith(" from sum conj(M) (x) M")
    assert lines[3] == "swap_representation: joint subspace dimension 4, expected 10"


MAP_CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import size_ladder as ladder
from beyondcp import SpaceLayout, SubsystemMap, UnitaryFamily, consistent_kernel, derive_map
from beyondcp import full_operator_space, identity, span_from_generators, subspace_sum, tensor
from beyondcp.sampling import haar_unitary
u = haar_unitary((2, 4), np.random.default_rng(1))
a, _ = ladder._constraints(UnitaryFamily((u,)), 2, 4)
kernel = consistent_kernel(UnitaryFamily((u,)), SpaceLayout((2, 4)))
v = subspace_sum(kernel, span_from_generators([identity((2, 4)) / 8]))
phi = derive_map(v, u)
for factor in (1.0, 1 + 1e-11, 1 + 1e-8):
    print(ladder.map_problem(SubsystemMap(phi.domain, phi.coord_matrix * factor), v, a, 4))
product = [tensor(b, identity(4) / 4) for b in full_operator_space(2).basis]
w = subspace_sum(kernel, span_from_generators(product))  # domain: all of B(H_S)
print(ladder.map_problem(derive_map(w, u), w, a, 4))
"""


def test_size_ladder_refuses_a_derived_map_off_its_references():
    paths = [str(ROOT / d) for d in ("src", "scripts", "perfbench")]
    result = subprocess.run(
        [sys.executable, "-c", MAP_CHECK, *paths], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "None"
    assert lines[1].startswith("derive_map: coordinates ")
    assert lines[1].endswith(" from the pinv route")
    assert lines[2].startswith("derive_map: defining-relation residual ")
    assert lines[3] == "derive_map: domain dimension 4, expected 1"


SPANNED_CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import size_ladder as ladder
from beyondcp import SpaceLayout, UnitaryFamily, consistent_kernel, identity
from beyondcp import span_from_generators, subspace_sum
from beyondcp.sampling import haar_unitary
u = haar_unitary((2, 4), np.random.default_rng(1))
kernel = consistent_kernel(UnitaryFamily((u,)), SpaceLayout((2, 4)))
v = subspace_sum(kernel, span_from_generators([identity((2, 4)) / 8]))
print(ladder.spanned_problem(True, v))
print(ladder.spanned_problem(False, v))
print(ladder.spanned_problem(True, kernel))  # traceless, so 1/N lies outside
"""


def test_size_ladder_refuses_a_state_spanned_answer_off_its_reference():
    paths = [str(ROOT / d) for d in ("src", "scripts", "perfbench")]
    result = subprocess.run(
        [sys.executable, "-c", SPANNED_CHECK, *paths], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "None"
    assert lines[1] == "check_state_spanned: False, expected True"
    assert lines[2].startswith("check_state_spanned: an adjoint or 1/N lies ")
    assert lines[2].endswith(" outside the span")


TRANSFORMATION_CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import size_ladder as ladder
from beyondcp import SpaceLayout, UnitaryFamily, consistent_kernel, full_operator_space
from beyondcp import identity, span_from_generators, tensor, transformation_space
from beyondcp.subspaces import OperatorSubspace
from beyondcp.sampling import haar_unitary
family = UnitaryFamily((haar_unitary((2, 4), np.random.default_rng(1)),))
kernel = consistent_kernel(family, SpaceLayout((2, 4)))
v = span_from_generators([tensor(b, identity(4) / 4) for b in full_operator_space(2).basis])
w = transformation_space(v, family)
print(ladder.transformation_problem(w, v, kernel))
print(ladder.transformation_problem(kernel, v, kernel))  # v is missing
print(ladder.transformation_problem(OperatorSubspace(w.layout, w.basis_matrix()[:, 1:]), v, kernel))
print(ladder.transformation_problem(OperatorSubspace(w.layout, np.eye(64)[:, :61]), v, kernel))
"""


def test_size_ladder_refuses_a_transformation_space_off_its_reference():
    paths = [str(ROOT / d) for d in ("src", "scripts", "perfbench")]
    result = subprocess.run(
        [sys.executable, "-c", TRANSFORMATION_CHECK, *paths],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "None"
    assert lines[1] == "transformation_space: dimension 57, expected 61"  # v is missing
    assert lines[2] == "transformation_space: dimension 60, expected 61"
    assert lines[3].startswith("transformation_space: a column lies ")  # right size, wrong span


def test_size_ladder_records_a_call_over_budget_without_timing_it():
    result = _run_script("size_ladder.py", "--sizes", "2x2", "--budget", "0")
    assert result.returncode == 0, result.stderr
    calls = json.loads(result.stdout)["rungs"][0]["calls"]
    assert {call["status"] for call in calls.values()} == {"over budget"}
    assert all(set(call) == {"status", "first_call_s"} for call in calls.values())


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--sizes", "4", "expected D_SxD_B such as 4x8, got '4'"),
        ("--sizes", "0x2", "dimensions must be positive, got '0x2'"),
        ("--repeat", "0", "must be a positive integer, got '0'"),
        ("--budget", "nan", "must be finite and non-negative, got 'nan'"),
    ],
)
def test_size_ladder_refuses_bad_arguments(flag, value, message):
    result = _run_script("size_ladder.py", flag, value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"argument {flag}: {message}" in result.stderr


def _bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_STUB_DIGEST = """import pathlib
speed = pathlib.Path("speed.txt").read_text().split()[0]
print(f"cli seed=1 a same\\ncli seed=1 b {speed}\\ncli total (2 items) {speed}")
print("trials total (0 items) same")
"""


def _commit_tree(repo, speed, rss, digest=True):
    """Commit a tree whose stub benchmark reads ``speed.txt``, with a stub
    ``scripts/output_digest.py`` whose line ``b`` and cli total print the speed, or none."""
    (repo / "speed.txt").write_text(f"{speed} {rss}")
    script = repo / "scripts" / "output_digest.py"
    script.parent.mkdir(exist_ok=True)
    if digest:
        script.write_text(_STUB_DIGEST)
    else:
        script.unlink()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run([*git, "add", "-A"], check=True, capture_output=True)
    subprocess.run([*git, "commit", "-qm", f"speed {speed}"], check=True, capture_output=True)


@pytest.fixture
def two_revisions(tmp_path):
    """A repository whose HEAD~1 runs at 100 ops/s and HEAD at 120, each with 40 MB rss
    unless a test commits another HEAD."""
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "init", "-q", str(repo)], check=True, capture_output=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    _commit_tree(repo, 100, 40)
    _commit_tree(repo, 120, 40)
    return repo


def _stub_runner(calls):
    """A runner that records (side, workload) and reports the tree's speed.txt, with a
    little spread by run, instead of timing anything."""

    def run(tree, workload, seed, seconds):
        calls.append((tree.name, workload))
        speed, rss = map(float, (tree / "speed.txt").read_text().split())
        jitter = 1 + 0.01 * (len(calls) % 3)
        metrics = {
            "ops_per_s": speed * jitter,
            "latency_p50_ms": 1000 / speed * jitter,
            "latency_p90_ms": 2000 / speed * jitter,
            "setup_s": 0.3,
            "peak_rss_mb": rss,
        }
        env = {"python": "3", "numpy": "2", "blas": "b", "blas_threads": 1, "nproc": 2}
        return {"environment": env, "attempted": 10, "failed": 0, "metrics": metrics}

    return run


def test_bench_pairs_alternates_sides_and_grades_each_bound(two_revisions, tmp_path):
    bench = _bench_pairs()
    bench.ROOT = two_revisions
    calls, out = [], tmp_path / "BENCH_0.json"
    perfbench_before = sorted(p.name for p in (ROOT / "perfbench").iterdir())
    argv = ["--parent", "HEAD~1", "--out", str(out)]
    argv += ["--workloads", "kernel", "cli", "--pairs", "3", "--seconds", "1"]
    assert bench.main(argv, run=_stub_runner(calls)) == 0
    sides = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(s, "kernel") for s in sides] + [(s, "cli") for s in sides]
    doc = json.loads(out.read_text())
    assert list(doc) == [
        "benchmark", "parent", "change", "change_commit", "pairs", "machine", "claim", "bounds",
        "verdict", "digest", "summary", "pairs_by_run",
    ]
    assert doc["verdict"] == "within every bound" and doc["claim"] == "none"
    assert doc["digest"] == {
        "command": "python3 scripts/output_digest.py --seeds 1 2 3 --trials 40",
        "parent": {"cli total (2 items)": "100", "trials total (0 items)": "same"},
        "change": {"cli total (2 items)": "120", "trials total (0 items)": "same"},
        "moved": ["cli seed=1 b", "cli total (2 items)"],
    }
    assert list(doc["summary"]) == ["kernel_seed7", "cli_seed7"]
    ops = doc["summary"]["kernel_seed7"]["ops_per_s"]
    assert ops["parent_median"] == pytest.approx(101) and ops["change_median"] == pytest.approx(120)
    assert ops["change_wins"] == "3/3" and ops["beyond_parent_spread"] and ops["within_bound"]
    p90 = doc["summary"]["kernel_seed7"]["latency_p90_ms"]
    assert p90["change_vs_parent"] < 0 and p90["change_wins"] == "3/3"
    assert doc["summary"]["cli_seed7"]["failed_ops"] == {"parent": 0, "change": 0}
    assert len(doc["pairs_by_run"]) == 12 and "environment" not in doc["pairs_by_run"][0]
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == perfbench_before


def test_bench_pairs_fails_a_metric_outside_its_bound(two_revisions, tmp_path):
    _commit_tree(two_revisions, 120, 48, digest=False)  # peak rss +20%, against a bound of 10%
    bench = _bench_pairs()
    bench.ROOT = two_revisions
    out = tmp_path / "BENCH_0.json"
    argv = ["--parent", "HEAD~2", "--out", str(out)]
    assert bench.main([*argv, "--workloads", "trials", "--pairs", "1"], run=_stub_runner([])) == 1
    doc = json.loads(out.read_text())
    rss = doc["summary"]["trials_seed7"]["peak_rss_mb"]
    assert rss["change_vs_parent"] == pytest.approx(0.2) and not rss["within_bound"]
    assert doc["summary"]["trials_seed7"]["ops_per_s"]["within_bound"]
    assert doc["verdict"] == "outside a bound or with a failed op"
    assert doc["digest"]["change"] is None and doc["digest"]["moved"] is None
