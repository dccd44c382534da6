#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload fabric_cluster --seed 20141202 --seconds 20 --trace 0

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). Build output goes to standard
error; standard output is the benchmark's, whose last line is the JSON
result. The exit code is the benchmark's, or 1 if the build fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def source_id():
    """Identify the code under test: the git commit if there is one, else a
    digest of the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    files.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in files:
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src:" + h.hexdigest()[:12]


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "scotch-perfbench")
    args = [binary, *sys.argv[1:], "--commit", source_id()]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
