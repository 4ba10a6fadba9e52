"""Benchmark-side tracing: in-memory spans around calls into each layer.

Nothing here reaches inside ``src/``.  :func:`instrument` wraps the
public functions of each layer (the names the pipeline itself calls
through) for the duration of one traced pass, and restores them after.
Spans are kept in memory and written once at the end as Chrome
trace-event JSON (open it in Perfetto or ``chrome://tracing``) plus a
flat per-layer self-time table.

A span's self time is its duration minus the time its child spans
cover.  A layer is the part of a span name before the first dot.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Spans that are not a layer: one per timed pass, the parent of every
#: layer span recorded while the pass ran.
PASS_SPAN = "pass"


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    group: Optional[str] = None
    lane: int = 0
    args: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _Open:
    """Context of one span being recorded (cheaper than a generator)."""

    __slots__ = ("_tracer", "_rec")

    def __init__(self, tracer: "Tracer", rec: Span):
        self._tracer = tracer
        self._rec = rec

    def __enter__(self) -> Span:
        tracer, rec = self._tracer, self._rec
        stack = tracer._stack
        rec.parent = stack[-1] if stack else -1
        rec.group = tracer.group
        stack.append(len(tracer.spans))
        tracer.spans.append(rec)
        rec.start_ns = time.perf_counter_ns()
        return rec

    def __exit__(self, *_exc) -> None:
        self._rec.end_ns = time.perf_counter_ns()
        self._tracer._stack.pop()


class Tracer:
    """Collects spans in memory; single-threaded (the benchmark's own)."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Analysis or job id the spans being opened belong to.
        self.group: Optional[str] = None
        #: Audited debloat tests seen: (data path, program, dims, v), so the
        #: same valuations can be re-run without a recorder afterwards.
        self.audited_calls: List[tuple] = []

    def span(self, name: str, **args) -> _Open:
        return _Open(self, Span(name, 0, args=args))

    def interval(self, name: str, start_s: float, end_s: float,
                 lane: int, **args) -> None:
        """Record an interval observed from outside (no nesting).

        Used for service stages seen through the daemon's event stream:
        they overlap the client's own spans, so they sit on their own
        lane and count toward no self time.
        """
        self.spans.append(Span(name, int(start_s * 1e9), int(end_s * 1e9),
                               parent=-2, group=self.group, lane=lane,
                               args=args))

    # -- reports ---------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_times(self) -> Dict[str, List[float]]:
        """``{span name: [count, total s, self s]}`` over nested spans."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] += s.seconds
        table: Dict[str, List[float]] = {}
        for i, s in enumerate(self.spans):
            if s.parent == -2:
                continue
            row = table.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.seconds
            row[2] += s.seconds - child_s[i]
        return table

    def coverage(self) -> float:
        """Share of traced pass wall time inside named layer spans."""
        passes = {i for i, s in enumerate(self.spans) if s.name == PASS_SPAN}
        wall = sum(self.spans[i].seconds for i in passes)
        covered = sum(s.seconds for s in self.spans if s.parent in passes)
        return covered / wall if wall > 0 else 0.0

    def layer_table(self) -> str:
        """The flat per-layer self-time table, one row per span name."""
        rows = sorted(self.self_times().items(),
                      key=lambda kv: (kv[0].split(".")[0], -kv[1][2]))
        lines = [f"{'span':<28}{'count':>8}{'total_s':>12}{'self_s':>12}"]
        for name, (count, total, self_s) in rows:
            lines.append(f"{name:<28}{count:>8d}{total:>12.4f}"
                         f"{self_s:>12.4f}")
        layers: Dict[str, float] = {}
        for name, (_c, _t, self_s) in rows:
            if name != PASS_SPAN:
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + self_s
        lines.append("")
        lines.append(f"{'layer':<28}{'self_s':>12}")
        for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"{layer:<28}{self_s:>12.4f}")
        observed: Dict[str, List[float]] = {}
        for s in self.spans:
            if s.parent == -2:
                observed.setdefault(s.name, []).append(s.seconds)
        if observed:
            lines.append("")
            lines.append(f"{'observed interval':<28}{'count':>8}"
                         f"{'total_s':>12}{'median_s':>12}")
            for name, xs in sorted(observed.items()):
                xs.sort()
                lines.append(f"{name:<28}{len(xs):>8d}{sum(xs):>12.4f}"
                             f"{xs[len(xs) // 2]:>12.4f}")
        return "\n".join(lines)

    def chrome_trace(self, env: dict) -> dict:
        t0 = min((s.start_ns for s in self.spans), default=0)
        events = []
        for s in self.spans:
            args = dict(s.args)
            if s.group is not None:
                args["id"] = s.group
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": (s.start_ns - t0) / 1e3,
                "dur": (s.end_ns - s.start_ns) / 1e3,
                "pid": 1, "tid": s.lane, "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": env}

    def write(self, trace_path: str, table_path: str, env: dict) -> None:
        with open(trace_path, "w") as fh:
            json.dump(self.chrome_trace(env), fh)
        with open(table_path, "w") as fh:
            fh.write(self.layer_table() + "\n")


# -- instrumentation ---------------------------------------------------------


class _TimedProgram:
    """A program whose ``run`` is one ``audit.record`` span.

    Given to audited debloat tests only, so the same program object's
    runs elsewhere (the runtime replay) stay untimed by this span.
    """

    def __init__(self, program, tracer: Tracer):
        self._program = program
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._program, name)

    def run(self, access, v, dims):
        with self._tracer.span("audit.record"):
            return self._program.run(access, v, dims)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's public entry points with spans, then restore."""
    from repro.arraymodel.datafile import ArrayFile
    from repro.arraymodel.runtime import KondoRuntime
    from repro.audit.session import AuditSession
    from repro.carving import carver as carver_mod
    from repro.core.debloat_test import DebloatTest
    from repro.core.pipeline import Kondo
    from repro.fuzzing.schedule import FuzzSchedule

    saved = []

    def patch(owner, attr, make):
        raw = vars(owner)[attr]  # as defined, so restoring keeps it exact
        saved.append((owner, attr, raw))
        wrapper = make(getattr(owner, attr))
        if isinstance(raw, classmethod):
            wrapper = staticmethod(wrapper)  # wraps the bound classmethod
        setattr(owner, attr, wrapper)

    def spanned(name, on_result=None):
        def make(original):
            def wrapper(*a, **k):
                with tracer.span(name) as rec:
                    out = original(*a, **k)
                if on_result is not None:
                    on_result(rec, out)
                return out
            return wrapper
        return make

    def analyze(original):
        def wrapper(self, *a, **k):
            tracer.group = f"{self.program.name}{list(self.dims)}"
            with tracer.span("core.analyze"):
                return original(self, *a, **k)
        return wrapper

    def make_test(original):
        def wrapper(self, *a, **k):
            test = original(self, *a, **k)
            if test.mode == "audited":
                test.program = _TimedProgram(test.program, tracer)
            return test
        return wrapper

    def debloat_call(original):
        def wrapper(self, v):
            name = "core.test" if self.mode == "direct" else \
                "core.audited_test"
            if self.mode == "audited":
                program = getattr(self.program, "_program", self.program)
                tracer.audited_calls.append(
                    (self.data_path, program, self.dims, v))
            with tracer.span(name) as rec:
                flat = original(self, v)
            rec.args["offsets"] = int(flat.size)
            return flat
        return wrapper

    def resolve(original):
        def wrapper(self, *a, **k):
            with tracer.span("audit.resolve", events=int(self.n_events)):
                return original(self, *a, **k)
        return wrapper

    def replay(original):
        def wrapper(self, *a, **k):
            # The runtime's stats are cumulative: record this call's share.
            reads, hits = self.stats.reads, self.stats.hits
            with tracer.span("arraymodel.replay") as rec:
                stats = original(self, *a, **k)
            rec.args.update(reads=stats.reads - reads, hits=stats.hits - hits)
            return stats
        return wrapper

    def fuzz_stats(rec, fuzz):
        rec.args.update(
            tests=int(fuzz.iterations), useful=int(fuzz.n_useful),
            new=sum(1 for s in fuzz.seeds if s.n_new_offsets > 0))

    def merge_stats(rec, out):
        merged, stats = out
        rec.args.update(close_calls=int(stats.close_calls),
                        merges=int(stats.merges), merged=len(merged))

    patch(Kondo, "analyze", analyze)
    patch(Kondo, "make_test", make_test)
    patch(Kondo, "debloat_file", spanned(
        "arraymodel.debloat_write",
        lambda rec, subset: rec.args.update(bytes=subset.file_nbytes)))
    patch(ArrayFile, "open", spanned("arraymodel.open"))
    patch(KondoRuntime, "run_program", replay)
    patch(FuzzSchedule, "run", spanned("fuzzing.run", fuzz_stats))
    patch(DebloatTest, "__call__", debloat_call)
    patch(AuditSession, "accessed_indices", resolve)
    patch(carver_mod.Carver, "carve_flat", spanned("carving.carve"))
    patch(carver_mod.Carver, "build_cell_hulls", spanned(
        "carving.cell_hulls",
        lambda rec, hulls: rec.args.update(hulls=len(hulls))))
    patch(carver_mod, "merge_hulls", spanned("carving.merge", merge_stats))
    patch(carver_mod, "unflatten_many", spanned("carving.flatkey"))
    patch(carver_mod, "flatten_many", spanned("carving.flatkey"))
    patch(carver_mod, "flat_indices_in_hulls", spanned(
        "geometry.raster",
        lambda rec, flat: rec.args.update(indices=int(flat.size))))
    patch(carver_mod, "union_flat", spanned("perf.union"))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        tracer.group = None
