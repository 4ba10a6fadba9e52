#!/usr/bin/env python3
"""The Kondo benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload prl3d-192 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One run sets the workload up several times in fresh processes (the
median is ``setup_s``), sets it up once more in this process, then runs
timed passes until ``--seconds`` have gone by, and checks the outputs
after timing.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports every
per-layer metric; it also writes a Chrome trace-event file and a
per-layer self-time table under ``.perfbench/``.  ``--all`` runs every
workload untraced, each in its own process, and prints one row per
workload.  The exit code is non-zero when any output check fails.

Workloads, metrics and the layer predictions are described in
``BENCHMARK.json`` and ``perfbench/predictions.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def src_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh process, from spawn to ready.

    Covers interpreter start, imports and input generation, and for
    ``serve-sharded`` the daemon start until it answers.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def setup_probe(args) -> int:
    import workloads

    workdir = os.path.join(OUT, f"probe-{args.workload}-p{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, workdir)
    try:
        wl.setup()
        print("ready", flush=True)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_one(args, contract: dict) -> int:
    t_start = time.perf_counter()
    env = environment()
    setups = [probe_setup(args.workload, args.seed)
              for _ in range(SETUP_REPEATS)]

    import metrics
    import workloads
    from tracing import PASS_SPAN, Tracer, instrument

    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, workdir)
    tracer = Tracer() if args.trace else None
    walls, traced = [], []
    phases = {"probes": time.perf_counter()}
    try:
        wl.setup()
        wl.warm_up()
        start = phases["setup"] = time.perf_counter()
        while True:
            if tracer is not None and len(walls) > len(traced):
                with instrument(tracer), tracer.span(PASS_SPAN) as rec:
                    wl.run_pass(tracer)
                traced.append(rec.seconds)
            else:
                t0 = time.perf_counter()
                wl.run_pass(None)
                walls.append(time.perf_counter() - t0)
            wl.check_pass()
            if (time.perf_counter() - start >= args.seconds
                    and (tracer is None or traced)):
                break
        peak_mb = wl.peak_rss_mb()
        phases["passes"] = time.perf_counter()
        if tracer is not None:
            wl.after_traced(tracer)
        quality = wl.finish()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    phases["checks"] = time.perf_counter()

    failed = sum(1 for op in wl.ops if op[1])
    correct = failed == 0 and not wl.problems
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    marks = [t_start] + list(phases.values())
    print("phases " + ", ".join(
        f"{name} {b - a:.1f} s"
        for name, a, b in zip(phases, marks, marks[1:])))
    print("passes " + " ".join(f"{w:.3f}" for w in walls)
          + ("" if tracer is None else
             " traced " + " ".join(f"{w:.3f}" for w in traced)))
    tag = f"{args.workload}-s{args.seed}"
    if tracer is None:
        jobs = wl.jobs or walls
        values = metrics.end_to_end(setups, walls, jobs, peak_mb, quality)
        specs = contract["end_to_end"]
        _, pct, n = metrics.tail(jobs)
        notes = {"job_tail_s": f"p{pct:.1f} of {n} jobs",
                 "wall_s": f"median of {len(walls)} passes",
                 "setup_s": f"median of {len(setups)} set-ups"}
    else:
        overhead = statistics.median(traced) - statistics.median(walls)
        values = metrics.per_layer(tracer, overhead)
        specs = contract["per_layer"]
        notes = {"trace.overhead_s":
                 f"traced {statistics.median(traced):.3f} s - untraced "
                 f"{statistics.median(walls):.3f} s"}
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{tag}.json")
        table_path = os.path.join(OUT, f"layers-{tag}.txt")
        tracer.write(trace_path, table_path, env)
        print(tracer.layer_table())
        print(f"named layer spans cover {100 * tracer.coverage():.1f}% of "
              f"traced wall time; tracing overhead {overhead:+.4f} s/pass")
        print(f"wrote {os.path.relpath(trace_path, ROOT)} and "
              f"{os.path.relpath(table_path, ROOT)}")
    out = {}
    for spec in specs:
        name = spec["name"]
        out[name] = {"value": float(values[name]), "unit": spec["unit"]}
        print(f"{name:<28}{values[name]:>16.6g} {spec['unit']:<8}"
              f"{notes.get(name, '')}")
    fail_ratio = failed / max(1, len(wl.ops))
    print(f"{'fail_ratio':<28}{fail_ratio:>16.6g} {'ratio':<8}"
          f"{failed} of {len(wl.ops)} operations failed")
    result = {"correct": correct, "attempted": len(wl.ops),
              "failed": failed, "metrics": out}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "env": env, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args, contract: dict) -> int:
    """Every workload untraced, each in its own process; one row each."""
    specs = contract["end_to_end"]
    rows, status = [], 0
    for w in contract["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               w["name"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        env_line = next((ln for ln in lines if ln.startswith("env ")), "")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        rows.append((w["name"], result))
    if env_line:
        print(env_line)
    header = ["workload"] + [f"{s['name']} [{s['unit']}]" for s in specs] \
        + ["fail_ratio"]
    table = [header]
    for name, result in rows:
        if result is None:
            table.append([name] + ["error"] * (len(header) - 1))
            continue
        m = result["metrics"]
        table.append(
            [name] + [f"{m[s['name']]['value']:.6g}" for s in specs]
            + [f"{result['failed']}/{result['attempted']}"
               + ("" if result["correct"] else " CHECK FAILED")])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    print(json.dumps({"correct": status == 0,
                      "workloads": {n: r for n, r in rows}}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, one row each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/; run from a "
              "complete checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.all:
        return run_all(args, contract)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
