#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute after the build).

    python3 perfbench/selftest.py

For every workload, through perfbench/run.py:
  * the result line has exactly the keys correct, attempted, failed, metrics;
  * with --trace 0 every end-to-end metric of BENCHMARK.json appears once,
    with its unit, and with --trace 1 every per-layer metric does;
  * the output checks pass and the digest repeats across runs of one seed;
  * a deliberately corrupted digest (and, on serve, a corrupted replay hash)
    makes the output check fail.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys {keys}")
    return dict(pairs)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{' '.join(command)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Forget tiny-size digests of earlier builds: the first run of each
    # workload below records the reference.
    digests = os.path.join(ROOT, ".bench_out", "digests.json")
    if os.path.exists(digests):
        with open(digests) as f:
            known = {k: v for k, v in json.load(f).items()
                     if "tiny=1" not in k}
        with open(digests, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            keys = ["attempted", "correct", "failed", "metrics"]
            expect(sorted(result) == keys,
                   f"{workload} trace={trace}: result keys")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: every {kind} "
                                  "metric once, with its unit")
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: output checks pass")
        if workload == "serve":
            code, result = run(workload, 0, "--corrupt", "replay")
            expect(code != 0 and not result["correct"]
                   and result["failed"] >= 1,
                   "serve: a corrupted replay hash fails the output check")
        code, result = run(workload, 0, "--corrupt", "digest")
        expect(code != 0 and not result["correct"],
               f"{workload}: a corrupted digest fails the output check")

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
