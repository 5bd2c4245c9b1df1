#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload power-hot --seed 1 --seconds 20 --trace 0

Everything the build and the run write goes under .bench_build/ in the
current directory: the Go build cache, the binary, cached golden answers and
trace dumps. The last line of standard output is the benchmark's JSON result.
The exit code is the program's, or 1 when the build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.getcwd(), ".bench_build")
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-work-dir", os.path.join(build, "perfbench")] + sys.argv[1:]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
