#!/usr/bin/env python3
"""Build and run the vprof benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (release profile, shared cache off,
so nothing is written outside the checkout), then runs it with the same
arguments. The benchmark's own stdout passes through unchanged: its last
line is the JSON result. Build output goes to stderr.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: run from the root of a vprof checkout "
            "(dune-project and lib/ not found)\n")
        return 2
    env = dict(os.environ,
               DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(
                   os.path.join("perfbench", "_out", "cache")))
    build = subprocess.run(
        ["dune", "build", "--root", ".", os.path.join("perfbench", "bench.exe")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
