#!/usr/bin/env python3
"""Reproduce every built-in construction and summarize the verdicts.

Runs the same code paths as ``beyondcp catalog <topic>`` for all topics and
prints one line per verdict; exits nonzero if anything unexpectedly fails.
"""

import argparse
import json
import sys

from beyondcp.cli import run_cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--t", type=float, default=0.7853981633974483)
    parser.add_argument("--json", action="store_true", help="print each report as the CLI wrote it")
    args = parser.parse_args()

    commands = [
        ["catalog", "gibbs", "--theta", "1.0", "--beta", "0.5"],
        ["catalog", "example1", "--t", str(args.t)],
        ["catalog", "transpose"],
        ["catalog", "repolarizer", "--epsilon", str(args.epsilon)],
        ["catalog", "witness", "--bath-witness", "bell"],
        ["catalog", "witness", "--bath-witness", "classical"],
        ["catalog", "witness", "--bath-witness", "product"],
    ]

    import contextlib
    import io

    worst = 0
    for argv in commands:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run_cli(argv)
        if code == 2:  # an input error: run_cli printed its message and no report
            return code
        worst = max(worst, code)
        text = buffer.getvalue()
        doc = json.loads(text)
        print(f"== {' '.join(argv)} (exit {code})")
        for verdict in doc["verdicts"]:
            flag = "ok " if verdict["passed"] else "FAIL"
            residual = verdict.get("residual")
            residual_txt = "" if residual is None else f"  residual={residual:.3e}" if isinstance(residual, float) else f"  residual={residual}"
            print(f"  [{flag}] {verdict['name']}{residual_txt}")
        if args.json:
            sys.stdout.write(text)  # the report as the CLI wrote it
    return worst


if __name__ == "__main__":
    sys.exit(main())
