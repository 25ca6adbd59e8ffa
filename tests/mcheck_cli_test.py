#!/usr/bin/env python3
"""Command-line test for tfr_mcheck's check selection and --save/--replay.

Checks:
  1. `--check fischer-n2 --save F` finds the violation and saves it, and
     `--check fischer-n2 --replay F` replays it byte-identically (exit 0);
  2. `--replay F` with no check selected, or with two, is a usage error
     (exit 2), and so is `--save F` with two checks;
  3. an unknown `--check` name is a usage error (exit 2), and so is a
     numeric option whose value does not parse in full.

Run by ctest as McheckCliSaveReplay; also runnable by hand:
    python3 tests/mcheck_cli_test.py --mcheck build/src/tfr_mcheck
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path


def run(mcheck, *args):
    return subprocess.run([str(mcheck), *args], capture_output=True,
                          text=True, check=False)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mcheck", required=True, type=Path)
    args = parser.parse_args()
    failures = []

    def expect(code, *cli):
        result = run(args.mcheck, *cli)
        if result.returncode != code:
            failures.append(f"{' '.join(cli)}: exit {result.returncode}, "
                            f"want {code}\n{result.stdout}{result.stderr}")
        return result

    with tempfile.TemporaryDirectory() as tmp:
        saved = str(Path(tmp) / "fischer.run")

        # 1. Save, then replay against the same check.
        expect(0, "--check", "fischer-n2", "--save", saved)
        if not Path(saved).is_file():
            failures.append("--save wrote no file")
        replay = expect(0, "--check", "fischer-n2", "--replay", saved)
        if "byte-identical" not in replay.stdout:
            failures.append(f"replay not byte-identical:\n{replay.stdout}")

        # 2. A saved run belongs to exactly one check.
        expect(2, "--replay", saved)
        expect(2, "--check", "fischer-n2", "--check", "consensus-n2",
               "--replay", saved)
        expect(2, "--rt", "--save", str(Path(tmp) / "rt.run"))

    # 3. Unknown names and malformed numbers are rejected before anything
    # runs.
    expect(2, "--check", "no-such-check")
    expect(2, "--check", "eventcount-torn-epoch", "--seed", "banana")
    expect(2, "--check", "eventcount-torn-epoch", "--max-executions", "5x")
    expect(2, "--check", "eventcount-torn-epoch", "--jobs", "2x")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("tfr_mcheck command line: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
