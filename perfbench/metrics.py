"""End-to-end and per-layer metric values from one benchmark run."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from tracing import PASS_SPAN, Tracer


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count).  With 10 samples or fewer
    no such percentile exists, and the maximum stands in (percentile 100).
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(setup_s: List[float], pass_walls: List[float],
               jobs: List[float], peak_rss_mb: float,
               quality: Dict[str, float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(pass_walls),
        "peak_rss_mb": peak_rss_mb,
        "recall": quality.get("recall", 0.0),
        "precision": quality.get("precision", 0.0),
        "debloat_pct": quality.get("debloat_pct", 0.0),
        "job_p50_s": statistics.median(jobs),
        "job_tail_s": tail(jobs)[0],
        "jobs_per_min": 60.0 * len(jobs) / sum(pass_walls),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def per_layer(tr: Tracer, overhead_s: float) -> Dict[str, float]:
    """Every per-layer metric, per traced pass; 0 for a bypassed layer."""
    n = max(1, len(tr.named(PASS_SPAN)))
    total = tr.total_s

    def arg_sum(name: str, key: str) -> float:
        return sum(s.args.get(key, 0) for s in tr.named(name))

    fuzz_tests = arg_sum("fuzzing.run", "tests")
    tests = tr.named("core.test")
    test_s = total("core.test")
    m = {
        "fuzzing.run_s": total("fuzzing.run") / n,
        "fuzzing.self_s": (total("fuzzing.run") - test_s
                           - total("core.audited_test")) / n,
        "fuzzing.tests": fuzz_tests / n,
        "fuzzing.useful_ratio": _ratio(arg_sum("fuzzing.run", "useful"),
                                       fuzz_tests),
        "fuzzing.new_offset_ratio": _ratio(arg_sum("fuzzing.run", "new"),
                                           fuzz_tests),
        "core.test_s": test_s / n,
        "core.test_us_p50": 1e6 * _median([s.seconds for s in tests]),
        "core.offsets_per_test": _ratio(arg_sum("core.test", "offsets"),
                                        len(tests)),
    }

    plain_s = total("audit.plain") / n
    record_s = total("audit.record") / n
    m.update({
        "audit.record_s": record_s,
        "audit.plain_s": plain_s,
        "audit.overhead_ratio": _ratio(record_s - plain_s, plain_s),
        "audit.resolve_s": total("audit.resolve") / n,
        "audit.events": arg_sum("audit.resolve", "events") / n,
    })

    replay_reads = arg_sum("arraymodel.replay", "reads")
    m.update({
        "arraymodel.read_point_us": 1e6 * _ratio(
            total("arraymodel.read_point"),
            arg_sum("arraymodel.read_point", "reads")),
        "arraymodel.open_s": total("arraymodel.open") / n,
        "arraymodel.debloat_write_s": total("arraymodel.debloat_write") / n,
        "arraymodel.knds_bytes": arg_sum("arraymodel.debloat_write",
                                         "bytes") / n,
        "arraymodel.replay_read_us": 1e6 * _ratio(
            total("arraymodel.replay"), replay_reads),
        "arraymodel.replay_hit_ratio": _ratio(
            arg_sum("arraymodel.replay", "hits"), replay_reads),
    })

    close_calls = arg_sum("carving.merge", "close_calls")
    m.update({
        "carving.carve_s": total("carving.carve") / n,
        "carving.flatkey_s": total("carving.flatkey") / n,
        "carving.cell_hulls_s": total("carving.cell_hulls") / n,
        "carving.merge_s": total("carving.merge") / n,
        "carving.cell_hulls": arg_sum("carving.cell_hulls", "hulls") / n,
        "carving.close_calls": close_calls / n,
        "carving.merged_hulls": arg_sum("carving.merge", "merged") / n,
        "carving.merge_yield": _ratio(arg_sum("carving.merge", "merges"),
                                      close_calls),
        "geometry.raster_s": total("geometry.raster") / n,
        "geometry.raster_indices": arg_sum("geometry.raster", "indices") / n,
        "perf.union_s": total("perf.union") / n,
    })

    submits = tr.named("service.submit")
    follows = tr.named("service.follow")
    resubmits = [s for s in submits if s.args.get("resubmit")]
    m.update({
        "service.submit_ack_s": _median([s.seconds for s in submits]),
        "service.queue_wait_s": _median(
            [s.seconds for s in tr.named("service.queue_wait")]),
        "service.shard_run_s": _median(
            [s.seconds for s in tr.named("service.shard_run")]),
        "service.merge_s": _median(
            [s.seconds for s in tr.named("service.merge")]),
        "service.dedupe_hit_ratio": _ratio(
            sum(1 for s in resubmits if s.args.get("deduped")),
            len(resubmits)),
        "service.events_per_job": _ratio(arg_sum("service.follow", "events"),
                                         len(follows)),
        "service.rejected_busy": arg_sum("service.submit", "rejected_busy"),
        "trace.overhead_s": overhead_s,
        "trace.coverage": tr.coverage(),
    })
    return m
