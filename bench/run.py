"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 bench/run.py --workload toy --seed 1 --seconds 10 --trace 0

Run from the repository root. The workload runs in its own process
(``bench/harness.py``) with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1 before numpy loads. Work files go to
``bench_out/`` and are removed afterwards; a traced run (``--trace 1``)
leaves its spans and per-layer report there. The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "bench_out"
TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc raises its mmap threshold each time a large block is freed, so the
# first invocations in a process run slower than later ones; start every
# process at the values a long run settles at (64-bit maximum, trim at 2x)
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=("full", "small"))
    args = parser.parse_args(argv)

    package = ROOT / "src" / "ebmkit"
    if not (package / "cli.py").is_file():
        print(f"bench: no ebmkit sources under {package}", file=sys.stderr)
        return 2
    work = OUT / f"work_{args.workload}_{args.seed}_{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if not k.startswith("EBMKIT_")}
    env.update({var: "1" for var in BLAS_VARS})
    env.update(MALLOC_VARS)
    command = [sys.executable, str(BENCH / "harness.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale, "--work", str(work)]
    # its own session, so that a timeout also ends the set-up processes it starts
    proc = subprocess.Popen(command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"bench: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
