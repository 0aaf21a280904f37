"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Operations run one after another in this process, on one thread (a closed
loop with one client). With ``--trace 0`` whole passes over the workload's
operations repeat until ``--seconds`` have passed (at least one pass), and
the end-to-end metrics are medians over passes. With ``--trace 1`` one
untraced pass is followed by one traced pass, and the per-layer metrics
come from the traced one. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit code 2, and no result line, when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # per batch; a batch runs before the first pass and after each


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Times, in fresh interpreters, from start until the workload's inputs
    are ready (import homcoh, build inputs, write files)."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), workload, str(seed),
                 str(probe_dir)], stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def run_pass(wl, inputs, ops, seed, expected, workdir, tracer=None):
    """One pass over the operations: per-op wall and CPU times, failures,
    and stdout bytes of CLI operations. Gate checks are not timed."""
    from workloads import check, op_cwd

    times, cpus, failures, out_bytes = [], [], [], 0
    with op_cwd(wl, workdir):
        for index, (name, fn) in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                output = fn()
                error = None
            except Exception as exc:  # a raised exception is a failed op
                output, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            if error is None:
                if isinstance(output, tuple):
                    out_bytes += len(output[1].encode("utf-8"))
                error = check(wl, inputs, name, output, seed, expected)
            if error is not None:
                failures.append(f"{name}: {error}")
    return {"times": times, "cpus": cpus, "failures": failures,
            "out_bytes": out_bytes}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from spans import PER_LAYER_METRICS, Tracer, layer_metrics

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = workloads.ROOT / ".perfbench_run"
    workdir = run_dir / f"work-{os.getpid()}"
    try:
        inputs = wl.prepare(args.seed, workdir / "main")
        expected = workloads.load_expected()
        ops = wl.operations(inputs)
        passes = []
        if args.trace:
            passes.append(run_pass(wl, inputs, ops, args.seed, expected,
                                   workdir / "main"))
            tracer = Tracer()
            tracer.install()
            for miss in tracer.missing:
                print(f"warning: nothing to trace for {miss}", file=sys.stderr)
            passes.append(run_pass(wl, inputs, ops, args.seed, expected,
                                   workdir / "main", tracer))
            run_dir.mkdir(exist_ok=True)
            tracer.write(run_dir / f"spans-{wl.name}-{args.seed}.json")
        else:
            # Set-up probes are spread over the run, so that one slow
            # moment of the host does not decide setup_s.
            setup_times = measure_setup(wl.name, args.seed, workdir)
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(wl, inputs, ops, args.seed, expected,
                                       workdir / "main"))
                setup_times += measure_setup(wl.name, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in sorted(set(failures)):
        print(f"FAILED {f}", file=sys.stderr)
    walls = [sum(p["times"]) for p in passes]
    if args.trace:
        values = layer_metrics(tracer, walls[1], walls[0],
                               passes[1]["out_bytes"])
        units = dict(PER_LAYER_METRICS)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(sum(p["cpus"]) for p in passes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "setup_s": "s"}
    # The slowest operation (each op timed as its median over passes) is what
    # an interactive user waits for. It is reported here, not as a metric: a
    # single op of 1-2 s follows the host's speed swings too closely.
    per_op = [statistics.median(ts) for ts in
              zip(*(p["times"] for p in passes))]
    slowest = max(range(len(ops)), key=per_op.__getitem__)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes of {len(ops)} ops, "
          f"error_rate={len(failures) / attempted:.4f}, "
          f"pass wall_s {[round(w, 3) for w in walls]}, "
          f"slowest_op_s={per_op[slowest]:.3f} ({ops[slowest][0]})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
