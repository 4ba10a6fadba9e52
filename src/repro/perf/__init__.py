"""Performance layer: batched-parallel campaign execution, spatial-grid
hull merging support, and flat-index bitmap set operations.

Every fast path here is output-equivalent to the serial/legacy path it
replaces — bit-identical ``flat_indices``, identical merge fixed points,
seed-for-seed reproducible discovery traces.  See the "Performance
architecture" section of DESIGN.md.
"""

from repro.perf.bitmap import (
    FlatBitmap,
    make_accumulator,
    sorted_unique,
    union_flat,
    unique_flat,
)
from repro.perf.config import (
    DEFAULT_BITMAP_MAX_CELLS,
    SERIAL_PERF_CONFIG,
    PerfConfig,
)
from repro.perf.executor import CampaignExecutor, make_executor

__all__ = [
    "PerfConfig",
    "SERIAL_PERF_CONFIG",
    "DEFAULT_BITMAP_MAX_CELLS",
    "CampaignExecutor",
    "make_executor",
    "FlatBitmap",
    "make_accumulator",
    "unique_flat",
    "union_flat",
    "sorted_unique",
]
