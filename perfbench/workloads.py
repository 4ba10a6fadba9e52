"""The three benchmark workloads.

Each workload builds its inputs from the seed alone, runs timed passes,
and checks its outputs after timing.  Every Kondo entry point is called
with its defaults; the seed only picks program inputs (fuzz
``rng_seed``, KND file contents, replayed Θ samples, job seeds).

A workload counts *operations*: one analysis for ``prl3d-192``, one
program round trip for ``audited-roundtrip``, one submission for
``serve-sharded``.  An operation fails when it raises, when an output
check rejects it, when its job ends DEAD or PARTIAL, or when the client
times out.  A *job* is the unit a user waits for: a pass for the two
in-process workloads, a submission for ``serve-sharded``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from checks import (check_carved, check_digests, check_replay,
                    check_same_carve)
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro import (  # noqa: E402
    ArrayFile,
    ArraySchema,
    DataMissingError,
    DebloatedArrayFile,
    Kondo,
    KondoRuntime,
    get_program,
)
from repro.errors import (  # noqa: E402
    JobRejectedError,
    ServiceUnavailableError,
)
from repro.fuzzing import FuzzConfig  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobs import TERMINAL_STATES, JobSpec  # noqa: E402
from repro.service.shards import (  # noqa: E402
    decode_runs,
    execute_shard,
    merge_shard_results,
    plan_shards,
)


def derive_seed(*key: int) -> int:
    """A 32-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def quality(program, dims, carved: np.ndarray) -> Dict[str, float]:
    """Recall, precision and % debloated against the analytic truth.

    The definitions of ``repro.metrics.accuracy`` and ``bloat_fraction``,
    computed through one bitmap: their sorts take about 6 s at 192^3,
    which every run would pay.
    """
    n_flat = int(np.prod(dims))
    truth = program.ground_truth_flat(dims)
    kept = np.zeros(n_flat, dtype=bool)
    kept[carved] = True
    n_kept = int(np.count_nonzero(kept))
    common = int(np.count_nonzero(kept[truth]))
    return {"recall": common / truth.size if truth.size else 1.0,
            "precision": common / n_kept if n_kept else 1.0,
            "debloat_pct": 100.0 * (1.0 - n_kept / n_flat)}


def mean_quality(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        #: One entry per operation: (latency s, failed).
        self.ops: List[List] = []
        #: Latency of each job, when a job is not simply a pass.
        self.jobs: List[float] = []
        self.problems: List[str] = []

    def setup(self) -> None:
        """Build inputs and the objects a pass uses (untimed here)."""

    def warm_up(self) -> None:
        """Load what the first analysis loads lazily (qhull, carving)."""
        Kondo(get_program("PRL3D"), (24, 24, 24)).analyze()

    def run_pass(self, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def check_pass(self) -> None:
        """Check the pass just timed, outside its timer."""

    def finish(self) -> Dict[str, float]:
        """Check outputs after timing; return the quality metrics."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def after_traced(self, tracer: Tracer) -> None:
        """Measurements the traced run takes outside the timed passes."""

    def close(self) -> None:
        pass

    def _fail(self, what: str) -> None:
        self.problems.append(what)
        print(f"{self.name}: {what}", file=sys.stderr)


class Prl3d(Workload):
    """One direct-mode PRL3D 192³ analysis per pass."""

    name = "prl3d-192"
    DIMS = (192, 192, 192)

    def setup(self) -> None:
        self.program = get_program("PRL3D")
        self.fuzz_config = FuzzConfig(rng_seed=derive_seed(self.seed))
        self.result = None
        self.carved: Optional[np.ndarray] = None

    def warm_up(self) -> None:
        # Without it the first 192^3 analysis in a process runs about 15%
        # slower than later ones (first touch of large arrays), and the
        # slowest pass would measure that cold start.  A 128^3 analysis
        # removes the gap at half the cost of a 192^3 one.
        Kondo(self.program, (128, 128, 128)).analyze()

    def run_pass(self, tracer: Optional[Tracer]) -> None:
        self.carved = None  # drop the last result before the next pass
        t0 = time.perf_counter()
        try:
            self.result = Kondo(self.program, self.DIMS,
                                fuzz_config=self.fuzz_config).analyze()
        except Exception:  # noqa: BLE001 — count it, keep measuring
            traceback.print_exc()
            self.ops.append([time.perf_counter() - t0, True])
            return
        self.ops.append([time.perf_counter() - t0, False])

    def check_pass(self) -> None:
        result, self.result = self.result, None
        if result is None:
            return
        problems = check_carved(result.observed_flat, result.carved_flat,
                                int(np.prod(self.DIMS)))
        for p in problems:
            self._fail(p)
        self.ops[-1][1] = bool(problems)
        self.carved = result.carved_flat

    def finish(self) -> Dict[str, float]:
        if self.carved is None:
            self._fail("no analysis completed")
            return {}
        return quality(self.program, self.DIMS, self.carved)


class AuditedRoundtrip(Workload):
    """Audited analysis, debloated-file write and runtime replay."""

    name = "audited-roundtrip"
    # The four 2-D micro-benchmarks only: with PRL3D and RDC3D at 32^3 a
    # pass took 10-15 s, so a run held one or two passes.  The 3-D code
    # paths are the prl3d-192 workload's.
    PROGRAMS = (("CS", (64, 64)), ("PRL2D", (64, 64)), ("LDC2D", (64, 64)),
                ("RDC2D", (64, 64)))
    #: Θ samples replayed through the runtime per program and pass.
    N_REPLAY = 50

    def setup(self) -> None:
        self.items = []
        for i, (name, dims) in enumerate(self.PROGRAMS):
            program = get_program(name)
            rng = np.random.default_rng(derive_seed(self.seed, i, 1))
            data = rng.standard_normal(dims)
            knd = os.path.join(self.workdir, f"{name}.knd")
            ArrayFile.create(knd, ArraySchema(dims, "f8"), data).close()
            space = program.parameter_space(dims)
            self.items.append({
                "program": program, "dims": dims, "data": data, "knd": knd,
                "knds": os.path.join(self.workdir, f"{name}.knds"),
                "fuzz_config": FuzzConfig(rng_seed=derive_seed(self.seed, i)),
                "thetas": [space.sample(rng) for _ in range(self.N_REPLAY)],
                "carved": [], "observed": None, "ops": [],
            })

    def run_pass(self, tracer: Optional[Tracer]) -> None:
        for item in self.items:
            program, dims = item["program"], item["dims"]
            t0 = time.perf_counter()
            try:
                kondo = Kondo(program, dims, fuzz_config=item["fuzz_config"])
                result = kondo.analyze(test=kondo.make_test(
                    mode="audited", data_path=item["knd"]))
                subset = kondo.debloat_file(item["knd"], item["knds"], result)
                try:
                    runtime = KondoRuntime(subset)
                    for v in item["thetas"]:
                        runtime.run_program(program, v, dims)
                finally:
                    subset.close()
            except Exception:  # noqa: BLE001 — count it, keep measuring
                traceback.print_exc()
                self.ops.append([time.perf_counter() - t0, True])
                continue
            item["ops"].append(len(self.ops))
            self.ops.append([time.perf_counter() - t0, False])
            item["carved"].append(result.carved_flat)
            item["observed"] = result.observed_flat

    def _replayed_reads(self, item) -> list:
        """Replay every Θ sample through the runtime, keeping each read."""
        reads = []
        subset = DebloatedArrayFile.open(item["knds"])
        try:
            runtime = KondoRuntime(subset)
            read = runtime.read

            def recording(index):
                try:
                    value = read(index)
                except DataMissingError:
                    reads.append((tuple(index), None))
                    raise
                reads.append((tuple(index), value))
                return value

            runtime.read = recording
            for v in item["thetas"]:
                runtime.run_program(item["program"], v, item["dims"])
        finally:
            subset.close()
        return reads

    def finish(self) -> Dict[str, float]:
        rows = []
        for item in self.items:
            program, dims = item["program"], item["dims"]
            if not item["carved"]:
                self._fail(f"{program.name}: no round trip completed")
                continue
            direct = Kondo(program, dims,
                           fuzz_config=item["fuzz_config"]).analyze()
            carved = item["carved"][-1]
            problems = check_carved(item["observed"], carved,
                                    int(np.prod(dims)))
            for c in item["carved"]:
                problems += check_same_carve(c, direct.carved_flat)
            problems += check_replay(self._replayed_reads(item), carved,
                                     item["data"])
            for p in problems:
                self._fail(f"{program.name}: {p}")
            if problems:
                for k in item["ops"]:
                    self.ops[k][1] = True
            rows.append(quality(program, dims, carved))
        return mean_quality(rows) if rows else {}

    def after_traced(self, tracer: Tracer) -> None:
        """Re-run each audited valuation with no recorder attached.

        Gives ``audit.plain`` (the same program runs the audited tests
        made, minus capture) and ``arraymodel.read_point`` (each element
        read, timed one by one in a second replay).
        """
        by_path: Dict[str, list] = {}
        for path, program, dims, v in tracer.audited_calls:
            by_path.setdefault(path, []).append((program, dims, v))
        for path, calls in by_path.items():
            with ArrayFile.open(path) as f:
                reads = 0
                t0 = time.perf_counter()
                for program, dims, v in calls:
                    reads += program.run(f.read_point, v, dims)
                tracer.interval("audit.plain", t0, time.perf_counter(),
                                lane=1, reads=reads)
                read_point = f.read_point
                spent = [0.0]
                clock = time.perf_counter

                def timed(index):
                    t = clock()
                    value = read_point(index)
                    spent[0] += clock() - t
                    return value

                for program, dims, v in calls:
                    program.run(timed, v, dims)
                tracer.interval("arraymodel.read_point", t0, t0 + spent[0],
                                lane=2, reads=reads)


def reference_job(spec_json: dict) -> dict:
    """The no-fault reference result of one sharded job, plus its quality.

    The body of ``run_sharded_reference`` (every shard run serially,
    then merged), kept open so the merged offsets can be scored too.
    """
    spec = JobSpec.from_json(spec_json)
    shards = {i: execute_shard(spec.to_json(), i)
              for i in range(plan_shards(spec).n_shards)}
    merged = merge_shard_results(spec, shards)
    union = np.unique(np.concatenate(
        [decode_runs(shards[i]["cloud"]) for i in sorted(shards)]))
    program = get_program(spec.program)
    carved = Kondo(program, spec.dims, carver=spec.carver).carver.carve_flat(
        union).flat_indices
    return {"result": merged, "quality": quality(program, spec.dims, carved)}


class ServeSharded(Workload):
    """A closed-loop client of a ``kondo serve --workers 2`` child."""

    name = "serve-sharded"
    PROGRAM, DIMS, SHARDS = "CS", (64, 64), 4
    #: Submissions per pass; the last one resubmits an earlier spec.
    BATCH = 4
    TERMINAL_EVENTS = ("done", "partial", "dead")
    CLIENT_TIMEOUT_S = 60.0

    def setup(self) -> None:
        self.rng = np.random.default_rng(derive_seed(self.seed))
        # Relative paths (the benchmark runs from the checkout root): unix
        # socket paths are capped near 108 bytes and the checkout may sit
        # deep in the file system.
        self.state_dir = os.path.relpath(
            os.path.join(self.workdir, "state"), ROOT)
        os.makedirs(self.state_dir)
        self.socket = os.path.join(self.state_dir, "kondo.sock")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(os.path.join(self.workdir, "daemon.log"), "wb")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", self.state_dir,
             "--workers", "2"],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        self.client = ServiceClient(self.socket)
        deadline = time.monotonic() + 60.0
        while True:
            if self.daemon.poll() is not None:
                raise RuntimeError("kondo serve exited during start-up")
            try:
                self.client.ping()
                break
            except ServiceUnavailableError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)
        self.fresh: List[dict] = []  # {"spec", "job", "op"}
        self.resubmits: List[dict] = []  # {"of", "ack", "op"}
        self.n_submitted = 0

    def warm_up(self) -> None:
        # Seed 0 is never drawn for a timed job (job seeds start at 1).
        spec = JobSpec(program=self.PROGRAM, dims=self.DIMS, seed=0,
                       shards=self.SHARDS)
        ack, kind, _latency = self._submit(spec, None)
        if kind != "done":
            raise RuntimeError(f"warm-up job {ack['job']} ended {kind}")

    def _spec(self) -> JobSpec:
        return JobSpec(program=self.PROGRAM, dims=self.DIMS,
                       seed=int(self.rng.integers(1, 2 ** 31 - 1)),
                       shards=self.SHARDS)

    def _submit(self, spec: JobSpec, tracer: Optional[Tracer],
                resubmit: bool = False):
        """Submit one job and wait for its terminal event.

        Returns (ack, terminal kind, latency s); latency runs from the
        submit call to the terminal event's receipt.
        """
        span = tracer.span if tracer is not None else _no_span
        t0 = time.perf_counter()
        with span("service.submit", resubmit=resubmit) as rec:
            try:
                ack = self.client.submit(spec)
            except JobRejectedError as exc:
                if rec is not None:
                    rec.args["rejected_busy"] = int(
                        exc.code == protocol.REJECTED_BUSY)
                raise
            if rec is not None:
                rec.args["deduped"] = bool(ack.get("deduped"))
        t_ack = time.perf_counter()
        if ack.get("deduped") and ack.get("state") in TERMINAL_STATES:
            # Already terminal: complete at the ack.  Following it would
            # only add the daemon's follow-loop tick (about 0.1 s).
            return ack, ack["state"], t_ack - t0
        events = []
        kind = None
        with span("service.follow") as frec, contextlib.closing(
                self.client.follow(ack["job"],
                                   timeout_s=self.CLIENT_TIMEOUT_S)) as stream:
            for event in stream:
                now = time.perf_counter()
                if event["kind"] == "keepalive":
                    continue
                events.append((now, event))
                if event["kind"] in self.TERMINAL_EVENTS:
                    # Complete at the terminal event itself, not at the
                    # stream's "end" line, which trails it by up to one
                    # daemon tick (TICK_S = 0.1 s).
                    kind = event["kind"]
                    break
                if event["kind"] == "end":
                    kind = event["state"]
                    break
        t_done = events[-1][0] if events else time.perf_counter()
        if frec is not None:
            frec.args["events"] = len(events)
            self._intervals(tracer, t_ack, events)
        return ack, kind, t_done - t0

    @staticmethod
    def _intervals(tracer: Tracer, t_ack: float, events) -> None:
        """Service stages seen through the job's event stream."""
        leased: Dict[int, float] = {}
        first_lease = last_done = None
        for t, ev in events:
            if ev["kind"] == "shard-leased":
                leased.setdefault(ev["shard"], t)
                if first_lease is None:
                    first_lease = t
                    tracer.interval("service.queue_wait", t_ack, t, lane=1)
            elif ev["kind"] == "shard-done" and ev["shard"] in leased:
                tracer.interval("service.shard_run", leased[ev["shard"]], t,
                                lane=10 + int(ev["shard"]))
                last_done = t
        if last_done is not None and events:
            tracer.interval("service.merge", last_done, events[-1][0],
                            lane=1)

    def run_pass(self, tracer: Optional[Tracer]) -> None:
        for _ in range(self.BATCH):
            self.n_submitted += 1
            resubmit = self.n_submitted % self.BATCH == 0 and self.fresh
            if resubmit:
                of = self.fresh[int(self.rng.integers(len(self.fresh)))]
                spec = of["spec"]
            else:
                spec = self._spec()
            if tracer is not None:
                tracer.group = spec.key[:12]
            t0 = time.perf_counter()
            try:
                ack, kind, latency = self._submit(spec, tracer,
                                                  bool(resubmit))
            except JobRejectedError as exc:
                self.ops.append([time.perf_counter() - t0, True])
                self._fail(f"submit rejected: {exc}")
                continue
            except Exception:  # noqa: BLE001 — timeouts, protocol errors
                traceback.print_exc()
                self.ops.append([time.perf_counter() - t0, True])
                continue
            failed = kind != "done"
            if failed:
                self._fail(f"job {ack['job']} ended {kind}")
            if resubmit:
                if not ack.get("deduped"):
                    self._fail(f"resubmitted {ack['job']} was not deduped")
                    failed = True
                self.resubmits.append({"of": of, "ack": ack,
                                       "op": len(self.ops)})
            else:
                self.fresh.append({"spec": spec, "job": ack["job"],
                                   "op": len(self.ops)})
            self.ops.append([latency, failed])
            self.jobs.append(latency)

    def peak_rss_mb(self) -> float:
        """The larger of the client's and the daemon's peak RSS."""
        own = super().peak_rss_mb()
        try:
            with open(f"/proc/{self.daemon.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return max(own, int(line.split()[1]) / 1024.0)
        except OSError:
            pass
        return own

    def finish(self) -> Dict[str, float]:
        for job in self.fresh:
            job["served"] = self.client.status(job["job"]).get("result") or {}
        # The reference runs are untimed; two child processes halve their
        # wait.  Each gets every other job as JSON on stdin.
        halves = [self.fresh[0::2], self.fresh[1::2]]
        children = []
        for half in halves:
            child = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)], cwd=ROOT,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            child.stdin.write(json.dumps([j["spec"].to_json() for j in half]))
            child.stdin.close()
            children.append(child)
        outs = []
        for child in children:
            outs.append(child.stdout.read())
            child.stdout.close()
        if any([child.wait() for child in children]):
            raise RuntimeError("a reference run failed")
        refs: Dict[str, dict] = {}
        for half, out in zip(halves, outs):
            refs.update((j["job"], ref)
                        for j, ref in zip(half, json.loads(out)))
        rows = []
        for job in self.fresh:
            ref = refs[job["job"]]
            job["reference"] = ref["result"]
            problems = check_digests(job["served"], ref["result"])
            for p in problems:
                self._fail(f"job {job['job']}: {p}")
            if problems:
                self.ops[job["op"]][1] = True
            rows.append(ref["quality"])
        for again in self.resubmits:
            problems = check_digests(again["ack"].get("result") or {},
                                     again["of"]["reference"])
            for p in problems:
                self._fail(f"resubmitted {again['of']['job']}: {p}")
            if problems:
                self.ops[again["op"]][1] = True
        return mean_quality(rows) if rows else {}

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None and daemon.poll() is None:
            try:
                self.client.drain()
                daemon.wait(timeout=60)
            except Exception:  # noqa: BLE001 — fall back to a kill
                daemon.kill()
                daemon.wait(timeout=60)
        if getattr(self, "log", None) is not None:
            self.log.close()


def _no_span(_name, **_args):
    return contextlib.nullcontext()


WORKLOADS = {w.name: w for w in (Prl3d, AuditedRoundtrip, ServeSharded)}


def make(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)


if __name__ == "__main__":
    # A reference-run child of ServeSharded.finish: job specs in, results out.
    json.dump([reference_job(spec) for spec in json.load(sys.stdin)],
              sys.stdout)
