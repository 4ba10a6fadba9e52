"""Output checks: each returns a list of problems, empty when correct.

They take plain arrays and dicts, not live objects, so the self-test can
feed them tampered outputs and see each one fail.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: A replayed read: the index read and the value returned, or ``None``
#: when the runtime raised ``DataMissingError``.
Read = Tuple[Tuple[int, ...], Optional[float]]


def check_carved(observed: np.ndarray, carved: np.ndarray,
                 n_flat: int) -> List[str]:
    """Observed offsets are a subset of the carved ones, all in the array."""
    for what, flat in (("carved", carved), ("observed", observed)):
        if flat.size and (flat.min() < 0 or flat.max() >= n_flat):
            return [f"{what} offsets outside [0, {n_flat})"]
    kept = np.zeros(n_flat, dtype=bool)
    kept[carved] = True
    missing = observed[~kept[observed]]
    if missing.size:
        return [f"{missing.size} observed offsets not carved "
                f"(first {int(missing[0])})"]
    return []


def check_same_carve(audited: np.ndarray, direct: np.ndarray) -> List[str]:
    """Audited-mode carving equals direct-mode carving on the same seed."""
    if np.array_equal(audited, direct):
        return []
    diff = np.setxor1d(audited, direct)
    return [f"audited carve differs from direct carve at {diff.size} "
            f"offsets (first {int(diff[0])})"]


def check_replay(reads: Iterable[Read], carved: np.ndarray,
                 source: np.ndarray) -> List[str]:
    """Reads inside the carve return the source value; outside, go missing."""
    dims = source.shape
    problems = []
    for index, value in reads:
        flat = int(np.ravel_multi_index(index, dims))
        pos = int(np.searchsorted(carved, flat))
        inside = pos < carved.size and int(carved[pos]) == flat
        if inside and value is None:
            problems.append(f"read {index} inside the carve went missing")
        elif inside and value != source[index]:
            problems.append(f"read {index} returned {value!r}, source "
                            f"holds {source[index]!r}")
        elif not inside and value is not None:
            problems.append(f"read {index} outside the carve returned "
                            f"{value!r} instead of DataMissingError")
        if len(problems) >= 5:
            break
    return problems


def check_digests(got: dict, want: dict,
                  keys: Sequence[str] = ("observed_sha256",
                                         "carved_sha256")) -> List[str]:
    """A served job result carries the reference run's digests."""
    return [f"{k}: served {got.get(k)!r}, reference {want.get(k)!r}"
            for k in keys if got.get(k) != want.get(k)]
