#!/usr/bin/env python3
"""Builds the NLIDB benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ in the checkout. The trained model is
cached in .bench_build/model/ and dropped whenever the benchmark binary is
rebuilt, so a cached model always comes from the code being measured.
NLIDB_* environment variables are removed so the program runs with its
shipped defaults. The last line of standard output is the result object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
MODEL_DIR = os.path.join(BUILD, "model")
SPANS_DIR = os.path.join(BUILD, "spans")
BINARY = os.path.join(CMAKE_DIR, "nlidb_perfbench")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("NLIDB_")}


def build():
    """Configures (once) and builds the benchmark; True on success."""
    env = clean_env()
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", CMAKE_DIR, "--target", "nlidb_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def source_tree_hash():
    """SHA-256 over the program sources, so records name what they ran."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id():
    """HEAD of the checkout when it is its own git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    if before != os.path.getmtime(BINARY):
        shutil.rmtree(MODEL_DIR, ignore_errors=True)
    os.makedirs(SPANS_DIR, exist_ok=True)

    cmd = [BINARY,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--cache-dir", MODEL_DIR,
           "--commit", commit_id(),
           "--source-tree", source_tree_hash()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            SPANS_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, env=clean_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
