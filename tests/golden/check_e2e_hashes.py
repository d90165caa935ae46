#!/usr/bin/env python3
"""Rerun the pinned e2ebench workloads and compare their results_hash.

Run from the repository root:

    python3 tests/golden/check_e2e_hashes.py

Each pin runs `e2ebench/run.py --trace 0` for its workload and seed. The
pins belong to the native-kernel build (the scalar and AVX2 kernels round
differently), so a run whose meta block reads native_kernels.active false
fails instead of comparing. Exits non-zero on any mismatch or failed run.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_pin(seconds, pin):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", pin["workload"], "--seed", str(pin["seed"]),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return f"run exited {proc.returncode}"
    meta = next((line for line in proc.stdout.splitlines()
                 if line.strip().startswith('"meta":')), None)
    if meta is None:
        return "no meta line in the run's output"
    native = json.loads("{" + meta.strip().rstrip(",") + "}")["meta"]
    if not native.get("native_kernels", {}).get("active", False):
        return "native_kernels.active is false; the pins need native kernels"
    found = re.search(r"results_hash=([0-9a-f]+)", proc.stdout)
    if found is None:
        return "no results_hash in the run's output"
    if found.group(1) != pin["results_hash"]:
        return f"results_hash {found.group(1)} != pinned {pin['results_hash']}"
    return None


def main():
    with open(os.path.join(ROOT, "tests", "golden",
                           "e2e_results_hash.json")) as f:
        pins = json.load(f)
    failures = 0
    for pin in pins["pins"]:
        error = run_pin(pins["seconds"], pin)
        label = f"{pin['workload']} seed {pin['seed']}"
        if error is None:
            print(f"{label}: results_hash {pin['results_hash']} matches")
        else:
            print(f"{label}: {error}")
            failures += 1
    print(f"{len(pins['pins']) - failures}/{len(pins['pins'])} pins match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
