#!/usr/bin/env python3
"""Print SHA-256 digests of the program's outputs, to show that a change keeps them.

CLI items: each of the 15 commands of the ``cli`` benchmark workload at each
``--seeds`` value, run in-process through ``run_cli``; the digest covers the
exit code, stdout and stderr, with the workload's temporary directory masked.
Trials items: the first ``--trials`` results of the ``trials`` workload at seed
7; the digest covers the derived maps' coordinate matrices and domain bases,
the representation verdict and the channel outputs.  One total line follows
each group.  Run it on two trees and compare the lines:

    python3 scripts/output_digest.py [--seeds 1 2 3] [--trials 40]
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from beyondcp.cli import run_cli  # noqa: E402
from workloads import CliWorkload, TrialsWorkload  # noqa: E402

TRIALS_SEED = 7


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _array_bytes(a: np.ndarray) -> bytes:
    a = np.asarray(a)
    return repr((a.shape, a.dtype.str)).encode() + np.ascontiguousarray(a).tobytes()


def cli_items(seed: int):
    """(name, digest) of each command of the ``cli`` workload at ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, _, _ in CliWorkload(seed, Path(tmp)).commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            texts = (s.getvalue().replace(tmp, "<tmp>").encode() for s in (out, err))
            yield f"cli seed={seed} {name}", _sha(str(code).encode(), *texts)


def trials_items(n: int):
    """(name, digest) of each of the first ``n`` results of the ``trials`` workload."""
    workload = TrialsWorkload(TRIALS_SEED)
    for i in range(n):
        r = workload._trial(workload._inputs(i))
        arrays = [a for phi in (r.phi, r.phi_again, r.psi)
                  for a in (phi.coord_matrix, phi.domain.basis_matrix())]
        v = r.verdict
        verdict = repr((v.passed, v.consistency_residual, v.domain_residual, v.map_residual))
        parts = [_array_bytes(a) for a in (*arrays, *r.channel_out)]
        yield f"trials seed={TRIALS_SEED} i={i}", _sha(*parts, verdict.encode())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--trials", type=int, default=40)
    args = parser.parse_args()
    os.environ.pop("BEYONDCP_SEED", None)  # it would override each command's --seed
    for group, items in (
        ("cli", [item for seed in args.seeds for item in cli_items(seed)]),
        ("trials", list(trials_items(args.trials))),
    ):
        for name, digest in items:
            print(f"{name} {digest}")
        total = _sha(*(digest.encode() for _, digest in items))
        print(f"{group} total ({len(items)} items) {total}")


if __name__ == "__main__":
    main()
