"""Binary a_p cache.

Layout (all integers little-endian int64):

    bytes 0..7    magic b"APCACHE1"
    bytes 8..15   format version (currently 1)
    bytes 16..23  record count n
    then n records of 4 int64 each: (r, s, p, a_p)

Records are sorted lexicographically by (r, s, p) with no duplicates, and
every a_p must satisfy the Hasse bound; loading validates all of this and
raises CorruptCacheError with a specific message otherwise.

The file format needs only numpy; cache_build and u1_sweep import the
trace engine when they run, so reading or checking a cache loads none of it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .arith import PrimeTable

__all__ = [
    "MAGIC",
    "VERSION",
    "CorruptCacheError",
    "ApCache",
    "cache_build",
    "cache_save",
    "cache_load",
    "u1_sweep",
]

MAGIC = b"APCACHE1"
VERSION = 1
_HEADER = struct.Struct("<8sqq")


class CorruptCacheError(RuntimeError):
    """The cache file failed a structural or arithmetic validity check."""


@dataclass(frozen=True)
class ApCache:
    """In-memory view of a cache: a sorted (n, 4) int64 array of (r, s, p, a_p)."""

    records: np.ndarray

    def __post_init__(self):
        if self.records.ndim != 2 or self.records.shape[1] != 4:
            raise ValueError("records must be an (n, 4) array")

    @cached_property
    def _keys(self) -> np.ndarray:
        """Contiguous (r, s, p) key columns, built on the first lookup."""
        return np.ascontiguousarray(self.records[:, :3].T)

    def __len__(self) -> int:
        return len(self.records)

    def lookup(self, r: int, s: int, p: int) -> int | None:
        """a_p for the given key, or None when absent.

        Narrows the sorted records to the r block, then the s block, then
        the p row, by binary search on each key column.
        """
        lo, hi = 0, len(self.records)
        for keys, v in zip(self._keys, (r, s, p)):
            block = keys[lo:hi]
            lo, hi = lo + np.searchsorted(block, v, "left"), lo + np.searchsorted(block, v, "right")
        return int(self.records[lo, 3]) if lo < hi else None


def cache_build(T: float, X: float, primes: PrimeTable | None = None) -> ApCache:
    """Traces of every minimal curve in the box for all 5 <= p <= X."""
    from .arith import sieve_primes
    from .curves import sigma_p_batch
    from .families import _box

    if primes is None:
        primes = sieve_primes(int(X))
    ps = primes.in_range(5, X)
    grid = _box(T)
    R, S = grid.cells()
    traces = np.empty((len(R), len(ps)), dtype=np.int64)
    for j, p in enumerate(ps):
        traces[:, j] = sigma_p_batch(grid.rv[:, None], grid.sv, p)[grid.keep]
    n = len(ps)
    arr = np.column_stack(
        (np.repeat(R, n), np.repeat(S, n), np.tile(np.asarray(ps, dtype=np.int64), len(R)), traces.ravel())
    )
    return ApCache(records=arr)


def cache_save(cache: ApCache, path: str | Path) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(cache)))
        fh.write(np.ascontiguousarray(cache.records, dtype="<i8").tobytes())


def cache_load(path: str | Path) -> ApCache:
    """Read and fully validate a cache file."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise CorruptCacheError(f"corrupt cache {path}: truncated header")
    magic, version, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CorruptCacheError(f"corrupt cache {path}: bad magic {magic!r}")
    if version != VERSION:
        raise CorruptCacheError(f"corrupt cache {path}: unsupported version {version}")
    if count < 0:
        raise CorruptCacheError(f"corrupt cache {path}: negative record count")
    body = raw[_HEADER.size :]
    if len(body) != count * 32:
        raise CorruptCacheError(
            f"corrupt cache {path}: expected {count * 32} record bytes, found {len(body)}"
        )
    rec = np.frombuffer(body, dtype="<i8").astype(np.int64).reshape(count, 4)
    if count > 1:
        keys = rec[:, :3]
        prev, curr = keys[:-1], keys[1:]
        le = (
            (prev[:, 0] < curr[:, 0])
            | ((prev[:, 0] == curr[:, 0]) & (prev[:, 1] < curr[:, 1]))
            | ((prev[:, 0] == curr[:, 0]) & (prev[:, 1] == curr[:, 1]) & (prev[:, 2] < curr[:, 2]))
        )
        if not le.all():
            i = int(np.argmin(le))
            raise CorruptCacheError(
                f"corrupt cache {path}: records not strictly sorted at index {i + 1}"
            )
    bad = rec[:, 3] * rec[:, 3] > 4 * rec[:, 2]
    if bad.any():
        i = int(np.argmax(bad))
        raise CorruptCacheError(
            f"corrupt cache {path}: Hasse bound violated at index {i}: "
            f"(r={rec[i, 0]}, s={rec[i, 1]}, p={rec[i, 2]}, ap={rec[i, 3]})"
        )
    return ApCache(records=rec)


def u1_sweep(T: float, X: float, cache: ApCache | None = None) -> list[float]:
    """U1 for every curve of C(T), optionally served from a cache.

    The terms come from families.prime_terms over box_grid(T), one fsum per
    curve, so each value equals the scalar U1 exactly.  With a cache, every
    (curve, prime) key is looked up and a hit replaces the engine's trace;
    a missing key keeps the engine's value.
    """
    from .arith import sieve_primes
    from .curves import discriminant
    from .families import box_grid, fsum_rows, prime_terms
    from .weights import h_X

    primes = sieve_primes(int(X))
    R, S = box_grid(T)
    keys = list(zip(R.tolist(), S.tolist()))
    cols = []
    for p, t1, _ in prime_terms(R, S, discriminant(R, S), X, primes):
        if cache is not None:
            coef = -(math.log(p) / p) * h_X(math.log(p), X)
            hits = [cache.lookup(r, s, p) for r, s in keys]
            t1 = np.array([t if a is None else coef * a for t, a in zip(t1.tolist(), hits)])
        cols.append(t1)
    return fsum_rows(cols, len(R))
