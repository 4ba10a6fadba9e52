"""Benchmarks the perf layer: batched campaign executor, grid-accelerated
hull merging, and bitmap rasterization.

Times the fig10-style PRL 3-D pipeline end to end with the fast paths on
(``PerfConfig(workers=2)``: thread pool + grid merge + bitmap raster)
against the exact seed-state serial pipeline (``SERIAL_PERF_CONFIG``),
plus component-level timings — campaign throughput, merge wall-clock and
raster wall-clock at a 2-D and a 3-D scale.  Every fast path must be
bit-identical to its legacy counterpart; the end-to-end speedup on the
full 3-D scenario must be at least 3x.

Emits ``BENCH_perf.json`` (repo root and ``benchmarks/out/``).
"""

import json
import os
import time

import numpy as np

from repro.arraymodel.layout import flatten_many
from repro.carving.carver import Carver
from repro.carving.merge import merge_hulls_grid, merge_hulls_scan
from repro.core.pipeline import Kondo
from repro.fuzzing import FuzzConfig
from repro.fuzzing.schedule import FuzzSchedule
from repro.geometry.raster import flat_indices_in_hulls, integer_points_in_hulls
from repro.perf import PerfConfig, make_executor
from repro.perf.config import SERIAL_PERF_CONFIG
from repro.workloads import get_program

FAST_PERF = PerfConfig(workers=2)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _end_to_end(dims):
    """Full pipeline, fast vs legacy, on the fig10 PRL 3-D family."""
    program = get_program("PRL3D")
    fast_result, fast_s = _timed(
        lambda: Kondo(program, dims, perf=FAST_PERF).analyze()
    )
    legacy_result, legacy_s = _timed(
        lambda: Kondo(program, dims, perf=SERIAL_PERF_CONFIG).analyze()
    )
    identical = bool(
        np.array_equal(fast_result.carved_flat, legacy_result.carved_flat)
    )
    return {
        "program": "PRL3D",
        "dims": list(dims),
        "legacy_seconds": round(legacy_s, 3),
        "fast_seconds": round(fast_s, 3),
        "speedup": round(legacy_s / fast_s, 2),
        "identical_flat_indices": identical,
        "n_carved": int(fast_result.carved_flat.size),
        "n_hulls": fast_result.carve.n_hulls,
    }


def _campaign(program_name, dims, config, executor=None):
    program = get_program(program_name)
    space = program.parameter_space(dims)
    n_flat = int(np.prod(dims))

    def test(v):
        idx = program.access_indices(v, dims)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        return flatten_many(idx, dims)

    schedule = FuzzSchedule(test, space, config, n_flat)
    return schedule.run(executor=executor)


def _campaign_throughput(program_name, dims, max_iter):
    """Debloat-test throughput: serial loop vs batched executor."""
    config = FuzzConfig(max_iter=max_iter, stop_iter=max_iter, rng_seed=13)
    serial, serial_s = _timed(lambda: _campaign(program_name, dims, config))
    with make_executor(FAST_PERF) as executor:
        batched, batched_s = _timed(
            lambda: _campaign(program_name, dims, config, executor=executor)
        )
    return {
        "program": program_name,
        "dims": list(dims),
        "iterations": serial.iterations,
        "workers": FAST_PERF.workers,
        "serial_seconds": round(serial_s, 3),
        "serial_iters_per_s": round(serial.iterations / serial_s, 1),
        "batched_seconds": round(batched_s, 3),
        "batched_iters_per_s": round(batched.iterations / batched_s, 1),
        "identical_flat_indices": bool(
            np.array_equal(serial.flat_indices, batched.flat_indices)
        ),
    }


def _merge_and_raster(program_name, dims, scale_label):
    """Merge + raster wall-clock on one fuzz campaign's point cloud."""
    kondo = Kondo(get_program(program_name), dims, perf=SERIAL_PERF_CONFIG)
    fuzz = _campaign(program_name, dims, kondo.fuzz_config)
    carver = Carver(dims, kondo.carve_config)
    cell_hulls = carver.build_cell_hulls(fuzz.flat_indices)

    config = kondo.carve_config
    (scan_hulls, scan_stats), scan_s = _timed(
        lambda: merge_hulls_scan(list(cell_hulls), config)
    )
    (grid_hulls, grid_stats), grid_s = _timed(
        lambda: merge_hulls_grid(list(cell_hulls), config)
    )
    merge_identical = len(scan_hulls) == len(grid_hulls) and all(
        np.array_equal(a.vertices, b.vertices)
        for a, b in zip(scan_hulls, grid_hulls)
    )

    tol = config.raster_tol
    legacy_pts, legacy_s = _timed(
        lambda: integer_points_in_hulls(
            scan_hulls, dims=dims, tol=tol, perf=SERIAL_PERF_CONFIG
        )
    )
    fast_flat, fast_s = _timed(
        lambda: flat_indices_in_hulls(scan_hulls, dims, tol=tol,
                                      perf=PerfConfig())
    )
    legacy_flat = (
        flatten_many(legacy_pts, dims)
        if legacy_pts.size else np.empty(0, dtype=np.int64)
    )
    raster_identical = bool(np.array_equal(np.sort(legacy_flat), fast_flat))

    merge = {
        "scale": scale_label,
        "program": program_name,
        "dims": list(dims),
        "n_cell_hulls": len(cell_hulls),
        "n_merged_hulls": len(scan_hulls),
        "scan_seconds": round(scan_s, 3),
        "scan_close_calls": scan_stats.close_calls,
        "grid_seconds": round(grid_s, 3),
        "grid_close_calls": grid_stats.close_calls,
        "speedup": round(scan_s / grid_s, 2) if grid_s > 0 else None,
        "identical_hulls": bool(merge_identical),
    }
    raster = {
        "scale": scale_label,
        "program": program_name,
        "dims": list(dims),
        "n_hulls": len(scan_hulls),
        "n_indices": int(fast_flat.size),
        "legacy_seconds": round(legacy_s, 3),
        "bitmap_seconds": round(fast_s, 3),
        "speedup": round(legacy_s / fast_s, 2) if fast_s > 0 else None,
        "identical_flat_indices": raster_identical,
    }
    return merge, raster


def _format(report):
    e = report["end_to_end"]
    lines = [
        "BENCH_perf — fast-path pipeline vs serial seed pipeline",
        f"  end-to-end  {e['program']} {tuple(e['dims'])}: "
        f"legacy {e['legacy_seconds']}s  fast {e['fast_seconds']}s  "
        f"speedup {e['speedup']}x  identical={e['identical_flat_indices']}",
    ]
    c = report["campaign"]
    lines.append(
        f"  campaign    {c['program']} {tuple(c['dims'])}: "
        f"{c['serial_iters_per_s']} iters/s serial vs "
        f"{c['batched_iters_per_s']} iters/s batched "
        f"({c['workers']} workers)  identical={c['identical_flat_indices']}"
    )
    for m in report["merge"]:
        lines.append(
            f"  merge  {m['scale']}  {m['n_cell_hulls']} hulls: "
            f"scan {m['scan_seconds']}s ({m['scan_close_calls']} close) vs "
            f"grid {m['grid_seconds']}s ({m['grid_close_calls']} close)  "
            f"identical={m['identical_hulls']}"
        )
    for r in report["raster"]:
        lines.append(
            f"  raster {r['scale']}  {r['n_indices']} indices: "
            f"legacy {r['legacy_seconds']}s vs "
            f"bitmap {r['bitmap_seconds']}s  speedup {r['speedup']}x  "
            f"identical={r['identical_flat_indices']}"
        )
    return "\n".join(lines)


def test_perf_pipeline(save_output):
    fast_mode = os.environ.get("REPRO_FAST", "0") not in ("0", "", "false")
    dims_3d = (128, 128, 128) if fast_mode else (192, 192, 192)

    report = {"mode": "fast" if fast_mode else "full"}
    report["end_to_end"] = _end_to_end(dims_3d)
    report["campaign"] = _campaign_throughput(
        "CS", (48, 48), max_iter=200 if fast_mode else 400
    )
    merge_2d, raster_2d = _merge_and_raster(
        "PRL2D", (256, 256) if fast_mode else (512, 512), "2d"
    )
    merge_3d, raster_3d = _merge_and_raster(
        "PRL3D", (64, 64, 64) if fast_mode else (96, 96, 96), "3d"
    )
    report["merge"] = [merge_2d, merge_3d]
    report["raster"] = [raster_2d, raster_3d]

    text = json.dumps(report, indent=2)
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in (os.path.join(out_dir, "BENCH_perf.json"),
                 os.path.join(repo_root, "BENCH_perf.json")):
        with open(path, "w") as fh:
            fh.write(text + "\n")
    save_output("perf_pipeline", _format(report))

    # Every fast path must reproduce the serial pipeline bit for bit.
    assert report["end_to_end"]["identical_flat_indices"]
    assert report["campaign"]["identical_flat_indices"]
    for m in report["merge"]:
        assert m["identical_hulls"], m
        assert m["grid_close_calls"] <= m["scan_close_calls"], m
    for r in report["raster"]:
        assert r["identical_flat_indices"], r

    # The acceptance bar: >= 3x end to end on the full 3-D scenario.  The
    # REPRO_FAST scale is too small to amortize the shared geometry floor,
    # so it only has to clear a sanity bar.
    floor = 1.4 if fast_mode else 3.0
    assert report["end_to_end"]["speedup"] >= floor, report["end_to_end"]
