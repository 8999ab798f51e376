#!/usr/bin/env python3
"""Builds and runs the end-to-end CAB benchmark.

    python3 perfbench/run.py --workload <cab_mix|point_plan|tiered_tune> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR (default `.bench_build`), then run with every `CI_*`
variable removed from its environment, so CI legs that export them do not
change what is measured, and with its temporary files kept under the build
directory. The last line of standard output is the JSON result. See
perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        sys.stderr.write("perfbench: crates/core is missing; there is no warehouse to build\n")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = {k: v for k, v in os.environ.items() if not k.startswith("CI_")}
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    tmp = os.path.join(target, "perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench")] + sys.argv[1:],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
        return run.returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
