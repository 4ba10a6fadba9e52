#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py            # everything, a few minutes
    python3 perfbench/selftest.py --quick    # only the output checks

1. Each output check passes on real outputs and fails when fed one
   carved offset dropped, one replay value flipped, or one digest
   altered.
2. A short run of every workload, untraced and traced, prints every
   metric named in ``BENCHMARK.json`` with its unit, and a result line
   with exactly the contract's keys.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits non-zero without printing a result.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def test_checks() -> None:
    import workloads
    from checks import (check_carved, check_digests, check_replay,
                        check_same_carve)
    from repro import Kondo
    from repro.service.jobs import JobSpec

    os.makedirs(SCRATCH, exist_ok=True)
    wl = workloads.make("audited-roundtrip", 7, SCRATCH)
    wl.PROGRAMS = (("CS", (32, 32)),)
    wl.setup()
    item = wl.items[0]
    program, dims = item["program"], item["dims"]
    wl.run_pass(None)
    audited = item["carved"][-1]
    observed = item["observed"]
    n_flat = int(np.prod(dims))
    direct = Kondo(program, dims,
                   fuzz_config=item["fuzz_config"]).analyze().carved_flat

    expect(check_carved(observed, audited, n_flat) == [],
           "check_carved passes on a real carve")
    dropped = np.setdiff1d(audited, observed[:1])
    expect(check_carved(observed, dropped, n_flat) != [],
           "check_carved fails with one observed offset dropped")
    expect(check_carved(observed, np.append(audited, n_flat), n_flat) != [],
           "check_carved fails with an offset outside the array")

    expect(check_same_carve(audited, direct) == [],
           "check_same_carve passes: audited carve equals direct carve")
    interior = np.setdiff1d(audited, observed)
    for name, one in (("an observed", observed[0]),
                      ("a carved-only", (interior if interior.size
                                         else audited)[0])):
        expect(check_same_carve(np.setdiff1d(audited, [one]), direct) != [],
               f"check_same_carve fails with {name} offset dropped")

    reads = wl._replayed_reads(item)
    expect(reads and check_replay(reads, audited, item["data"]) == [],
           f"check_replay passes on {len(reads)} real replay reads")
    index, value = reads[len(reads) // 2]
    flipped = list(reads)
    flipped[len(reads) // 2] = (index, -value if value else 1.0)
    expect(check_replay(flipped, audited, item["data"]) != [],
           "check_replay fails with one replay value flipped")
    missing = list(reads)
    missing[0] = (reads[0][0], None)
    expect(check_replay(missing, audited, item["data"]) != [],
           "check_replay fails when a carved read goes missing")
    outside = np.setdiff1d(np.arange(n_flat), audited)
    if outside.size:
        idx = tuple(int(i) for i in np.unravel_index(int(outside[0]), dims))
        expect(check_replay([(idx, 0.0)], audited, item["data"]) != [],
               "check_replay fails when a read outside the carve is served")
        expect(check_replay([(idx, None)], audited, item["data"]) == [],
               "check_replay passes a DataMissingError outside the carve")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    spec = JobSpec(program="CS", dims=(32, 32), seed=3, max_iter=200,
                   shards=2)
    ref = workloads.reference_job(spec.to_json())["result"]
    expect(check_digests(dict(ref), ref) == [],
           "check_digests passes on the reference digest")
    for key in ("carved_sha256", "observed_sha256"):
        altered = dict(ref)
        altered[key] = ("0" if ref[key][0] != "0" else "1") + ref[key][1:]
        expect(check_digests(altered, ref) != [],
               f"check_digests fails with {key} altered")


def test_short_runs(contract: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        specs = contract[key]
        for w in contract["workloads"]:
            cmd = [sys.executable, RUN, "--workload", w["name"], "--seed",
                   "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            label = f"{w['name']} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exits 0")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
                   and result["correct"] and result["attempted"] >= 1,
                   f"{label} result line has the contract's keys, correct")
            printed = {ln.split()[0]: ln.split() for ln in lines[:-1]
                       if ln.split()}
            for s in specs:
                m = result["metrics"].get(s["name"])
                row = printed.get(s["name"], [])
                expect(m is not None and m["unit"] == s["unit"]
                       and s["unit"] in row[2:3],
                       f"{label} prints {s['name']} in {s['unit']}")
            expect(len(result["metrics"]) == len(specs),
                   f"{label} reports no metric beyond BENCHMARK.json")


def test_incomplete_checkout() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prl3d-192",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    sys.path.insert(0, HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    test_checks()
    test_incomplete_checkout()
    if "--quick" not in sys.argv:
        test_short_runs(contract)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
