#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paths --seed 1 --seconds 15 --trace 0

It builds perfbench/main.exe with dune, then runs it with the same
arguments.  The last line of standard output is the JSON result and the
exit code is the benchmark's.  Compiler temporaries go to .perfbench/
in the working directory, and dune's shared cache is off, so nothing is
written outside it.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    tmp = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
