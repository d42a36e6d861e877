#!/usr/bin/env python3
"""Runs one workload of the ALEX end-to-end benchmark.

    python3 perfbench/run.py --workload batch|serve|ingest --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) in Release into .bench_build/ on
first use, runs the workload in its own process, checks that its output
digest matches every earlier run of the same sources, workload, seed and
size in this checkout, and prints the result object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
workload runs twice, untraced then traced: the metrics are the per-layer
ones, .bench_out/trace-<workload>.json holds the Chrome trace, and
.bench_out/<workload>-seed<N>-trace.json holds the per-layer table and the
tracing overhead on every end-to-end metric. perfbench/README.md explains
the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "alexbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def tool_env():
    """Keeps compiler and cmake scratch files inside the checkout."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, PYTHONDONTWRITEBYTECODE="1")
    return env


def build():
    """Configures (once) and builds the benchmark; False when either fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = tool_env()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        configured = subprocess.run(configure, stdout=sys.stderr, env=env)
        if configured.returncode != 0:
            # A failed configure leaves a cache behind; drop it so the next
            # run configures again instead of building a broken tree.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    make = ["cmake", "--build", BUILD_DIR, "--target", "alexbench", "-j", "3"]
    return subprocess.run(make, stdout=sys.stderr, env=env).returncode == 0


def source_digest():
    """A digest of the files the benchmark builds (src/ and perfbench/),
    read every run, so uncommitted changes count too."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id(tree):
    """The source digest, plus the git commit when the checkout is a
    repository."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return f"tree:{tree} git:{sha.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"tree:{tree}"


def run_workload(args, trace, commit):
    """Runs the binary once; returns (detail dict, result dict, exit code)."""
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1" if trace else "0", "--commit", commit]
    if trace:
        trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
        command += ["--trace-out", trace_out]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, env=tool_env(), cwd=ROOT)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        log(f"alexbench exited {proc.returncode} without a result")
        return None, None, proc.returncode or 1
    detail = json.loads(lines[-2][len("detail "):])
    return detail, json.loads(lines[-1]), proc.returncode


def check_digest(args, tree, digest):
    """Records the digest of this (source version, workload, seed, size);
    False when an earlier run of the same sources recorded a different
    one."""
    path = os.path.join(OUT_DIR, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    key = (f"tree={tree}/{args.workload}/seed={args.seed}"
           f"/seconds={args.seconds}/tiny={int(args.tiny)}")
    if key in known:
        return known[key] == digest
    known[key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch", "serve", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (perfbench/selftest.py)")
    parser.add_argument("--corrupt", choices=["replay", "digest"],
                        help="deliberately break one output check (self-test)")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    tree = source_digest()
    commit = commit_id(tree)

    untraced = None
    if args.trace:
        untraced, _, _ = run_workload(args, False, commit)
    detail, result, code = run_workload(args, bool(args.trace), commit)
    if result is None:
        return code
    print("detail " + json.dumps(detail))

    digests_agree = check_digest(args, tree, detail["digest"])
    if untraced is not None:
        digests_agree &= untraced["digest"] == detail["digest"]
    if not digests_agree:
        log(f"output digest {detail['digest']} differs from an earlier run "
            "of this seed")
        result["correct"] = False
        result["attempted"] += 1
        result["failed"] += 1

    if args.trace:
        overhead = {}
        if untraced is not None:
            for name, metric in detail["end_to_end"].items():
                base = untraced["end_to_end"][name]["value"]
                change = metric["value"] - base
                overhead[name] = change / base if base else 0.0
        summary = {"workload": args.workload, "seed": args.seed,
                   "host": detail["host"], "layers": detail["layers"],
                   "per_layer": result["metrics"],
                   "untraced_end_to_end": untraced and untraced["end_to_end"],
                   "traced_end_to_end": detail["end_to_end"],
                   "tracing_overhead_share": overhead}
        name = f"{args.workload}-seed{args.seed}-trace.json"
        with open(os.path.join(OUT_DIR, name), "w") as f:
            json.dump(summary, f, indent=1)
        print("overhead " + json.dumps(overhead))

    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
