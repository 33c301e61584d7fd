#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-vmtp --seed 1 --seconds 10 --trace 0

The benchmark is built from source with dune (into _build/), then run;
its standard output is passed through unchanged, and its last line is
the JSON result. Exit codes: 2 when the repository sources are missing
or the build fails, 3 on a misdelivered packet, 4 on a nondeterministic
simulation, 5 when --misdeliver-test went unnoticed.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "pfbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: run me from the repository root (dune-project and lib/ not found)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/pfbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
