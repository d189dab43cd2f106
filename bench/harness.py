"""One workload in one process: set-up, warm-up, timed rounds, checks.

Started by ``run.py`` with the BLAS thread variables already set, so
numpy loads with one thread. Prints one JSON object as its last line.

    python3 bench/harness.py --workload toy --seed 1 --seconds 10 --trace 0
    python3 bench/harness.py --workload toy --seed 1 --setup-only

Each round runs every phase of the workload once; each phase invokes
``ebmkit.cli.main`` ``repeats`` times, times the invocations, and checks
every one. Rounds repeat until ``--seconds`` have passed, so every run
attempts whole rounds of the same operations.
"""

from __future__ import annotations

import time

T_START = time.process_time()   # set-up time counts from here, imports included

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

from ebmkit import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MEMORY_PHASES = ("calibrate", "hist_egm", "ood", "train_ngebm")


def invoke(wl, phase) -> tuple:
    """Run one command; returns (exit code, captured output). A train run
    registers its checkpoint for the phases that evaluate it."""
    argv = [phase.command, "--config", str(wl.config_path(phase.config)),
            "--out", str(wl.out_dir(phase.name)), *phase.argv]
    if phase.checkpoint:
        argv += ["--checkpoint", str(wl.checkpoints[phase.checkpoint])]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = cli.main(argv)
    if phase.command == "train":
        wl.checkpoints[phase.config] = wl.out_dir(phase.name) / "checkpoint_final.npz"
    return code, buffer.getvalue()


def set_up(name: str, seed: int, scale: str, root: Path):
    """Generate and write the inputs; train the set-up checkpoint if any."""
    if root.exists():
        shutil.rmtree(root)
    wl = workloads.build(name, seed, scale, root)
    wl.write()
    if wl.prepare:
        prep = workloads.Phase(wl.prepare, "train", wl.prepare, 0)
        code, output = invoke(wl, prep)
        if code != 0:
            raise RuntimeError(f"set-up training failed ({code}): {output}")
    return wl


def timed_set_up(args, root: Path) -> float:
    """Median set-up time over fresh processes, each importing from scratch."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--scale", args.scale, "--work", str(root), "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


class Runner:
    """Runs rounds of one workload and keeps the operation tally."""

    def __init__(self, wl):
        self.wl = wl
        self.ctx = checks.Context(wl)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def round(self, tracer=None) -> dict:
        """One pass over every phase; returns phase -> CPU seconds."""
        timings = {}
        for phase in self.wl.phases:
            timings[phase.name] = 0.0
            for _ in range(phase.repeats):
                t0 = time.process_time()
                if tracer is None:
                    code, output = invoke(self.wl, phase)
                else:
                    code, output = tracer.traced(f"phase.{phase.name}", invoke, self.wl, phase)
                timings[phase.name] += time.process_time() - t0
                self.record(phase, code, output)
                # a CLI user gets a fresh process per command; free the cyclic
                # tape garbage this one left, untimed, before the next starts
                gc.collect()
        return timings

    def record(self, phase, code: int, output: str) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {output.strip()[-300:]}"]
        else:
            try:
                problems = checks.CHECKS[phase.command](
                    self.ctx, self.wl, phase, self.wl.out_dir(phase.name))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.unexpected += [f"{phase.name}: {p}" for p in problems
                                if not p.startswith(checks.KNOWN)]


def warm_up(args, root: Path) -> None:
    """Every command once, untimed and unchecked, on one-batch inputs."""
    wl = set_up(args.workload, args.seed, "tiny", root)
    for phase in wl.phases:
        invoke(wl, phase)


def memory_pass(wl) -> dict:
    """tracemalloc peak of one invocation of each named phase."""
    peaks = {}
    for phase in wl.phases:
        if phase.name not in MEMORY_PHASES:
            continue
        tracemalloc.start()
        invoke(wl, phase)
        peaks[phase.name] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    return peaks


def machine() -> dict:
    """CPU count, Python and numpy versions, and the BLAS threads in effect."""
    import ctypes
    import os
    import platform
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": None, "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if getter is not None and config is not None:
                getter.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info["blas_threads"], info["blas"] = getter(), config().decode()
                return info
    return info


def rates(wl, rounds: list) -> dict:
    """Median over rounds of work per CPU second, for each phase."""
    return {phase.name: statistics.median(phase.work * phase.repeats / r[phase.name]
                                          for r in rounds)
            for phase in wl.phases}


UNITS = {"attack": ("attack_ex_steps_per_s", "ex_steps/s"),
         "sample": ("sample_chain_steps_per_s", "chain_steps/s")}


def end_to_end(wl, rounds: list, setup_s: float) -> dict:
    metrics = {"setup_s": (setup_s, "s")}
    for phase, rate in rates(wl, rounds).items():
        name, unit = UNITS.get(phase, (f"{phase}_ex_per_s", "ex/s"))
        metrics[name] = (rate, unit)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                              "MB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=("full", "small"))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.setup_only:
        set_up(args.workload, args.seed, args.scale, args.work / "inputs")
        print(json.dumps({"setup_s": time.process_time() - T_START}))
        return 0

    setup_s = timed_set_up(args, args.work)
    wl = workloads.build(args.workload, args.seed, args.scale, args.work / "inputs")
    if wl.prepare:
        wl.checkpoints[wl.prepare] = wl.out_dir(wl.prepare) / "checkpoint_final.npz"
    warm_up(args, args.work / "warmup")

    runner = Runner(wl)
    rounds = []
    began = time.perf_counter()
    while not rounds or (time.perf_counter() - began < args.seconds and not args.trace):
        rounds.append(runner.round())

    if args.trace:
        tracer = tracing.Tracer()
        traced = runner.round(tracer)
        overhead = sum(traced.values()) - sum(rounds[0].values())
        memory = memory_pass(wl)
        layer = tracing.per_layer(tracer, memory, overhead)
        stem = args.work.parent / f"trace_{args.workload}_seed{args.seed}"
        tracer.save(stem.with_suffix(".spans.npz"))
        stem.with_suffix(".json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine(),
            "per_layer": tracing.to_json(layer),
            "phase_seconds": {"untraced": rounds[0], "traced": traced},
            "layer_shares": tracing.layer_shares(tracer)}, indent=1))
        metrics = layer
    else:
        metrics = end_to_end(wl, rounds, setup_s)

    for problem in runner.unexpected:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not runner.unexpected, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": tracing.to_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
