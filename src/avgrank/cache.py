"""Binary a_p cache.

Layout (all integers little-endian int64):

    bytes 0..7    magic b"APCACHE1"
    bytes 8..15   format version (currently 1)
    bytes 16..23  record count n
    then n records of 4 int64 each: (r, s, p, a_p)

Records are sorted lexicographically by (r, s, p) with no duplicates, and
every a_p must satisfy the Hasse bound a_p^2 <= 4p; checking or loading
validates all of this and raises CorruptCacheError with a specific message
otherwise.

Validation needs only the standard library: it walks the records in blocks
of _BLOCK, compares consecutive (r, s, p) key tuples, carrying the last key
from one block to the next, and checks the Hasse bound in exact integers.
cache_check streams the file through it in bounded memory and loads no
numpy; cache_load runs it over the whole body and then builds the array.
cache_build imports the trace engine when it runs.  The file is an export
format of the traces: no command reads its a_p back into a prime sum,
since recomputing them is faster.
"""

from __future__ import annotations

import operator
import os
import struct
import sys
from array import array
from collections.abc import Iterable
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "CorruptCacheError",
    "ApCache",
    "cache_build",
    "cache_save",
    "cache_check",
    "cache_load",
]

MAGIC = b"APCACHE1"
VERSION = 1
_HEADER = struct.Struct("<8sqq")
_RECORD = 32  # bytes per record
_BLOCK = 1 << 15  # records validated at a time


class CorruptCacheError(RuntimeError):
    """The cache file failed a structural or arithmetic validity check."""


class ApCache:
    """In-memory view of a cache: a sorted (n, 4) int64 array of (r, s, p, a_p).

    The records must be strictly sorted by (r, s, p), as in a file, so
    that cache_save never writes a file that cache_check rejects.
    """

    __slots__ = ("records",)

    def __init__(self, records: np.ndarray):
        if records.ndim != 2 or records.shape[1] != 4:
            raise ValueError("records must be an (n, 4) array")
        (r0, s0, p0), (r1, s1, p1) = records[:-1, :3].T, records[1:, :3].T
        ordered = (r0 < r1) | ((r0 == r1) & ((s0 < s1) | ((s0 == s1) & (p0 < p1))))
        if not ordered.all():
            raise ValueError(f"records not strictly sorted by (r, s, p) at index {ordered.argmin() + 1}")
        self.records = records

    def __len__(self) -> int:
        return len(self.records)


def cache_build(T: float, X: float) -> ApCache:
    """Traces of every minimal curve in the box for all 5 <= p <= X."""
    import numpy as np

    from .arith import _check_memory, sieve_primes
    from .curves import sigma_p_batch
    from .families import _box

    ps = sieve_primes(int(X), 5)
    grid = _box(T)
    R, S = grid.cells()
    _check_memory(_RECORD * len(R) * len(ps), f"the a_p cache of {len(R)} curves and {len(ps)} primes")
    # one record per (curve, prime), filled in place in file order
    rec = np.empty((len(R), len(ps), 4), dtype=np.int64)
    rec[:, :, 0] = R[:, None]
    rec[:, :, 1] = S[:, None]
    rec[:, :, 2] = ps
    for j, p in enumerate(ps):
        rec[:, j, 3] = sigma_p_batch(grid.rv[:, None], grid.sv, p)[grid.keep]
    return ApCache(records=rec.reshape(-1, 4))


def cache_save(cache: ApCache, path: str | Path) -> None:
    import numpy as np

    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(cache)))
        fh.write(np.ascontiguousarray(cache.records, dtype="<i8"))


def _check_header(path: Path, head: bytes, size: int) -> int:
    """Record count of a file of size bytes that starts with head."""
    if len(head) < _HEADER.size:
        raise CorruptCacheError(f"corrupt cache {path}: truncated header")
    magic, version, count = _HEADER.unpack_from(head)
    if magic != MAGIC:
        raise CorruptCacheError(f"corrupt cache {path}: bad magic {magic!r}")
    if version != VERSION:
        raise CorruptCacheError(f"corrupt cache {path}: unsupported version {version}")
    if count < 0:
        raise CorruptCacheError(f"corrupt cache {path}: negative record count")
    found = size - _HEADER.size
    if found != count * _RECORD:
        raise CorruptCacheError(
            f"corrupt cache {path}: expected {count * _RECORD} record bytes, found {found}"
        )
    return count


def _first_false(flags: Iterable[bool]) -> int | None:
    """Position of the first false flag, or None when every flag holds."""
    flags = list(flags)
    # all() tests each flag's truth; an index search would compare each to False
    return None if all(flags) else flags.index(False)


def _check_records(path: Path, blocks: Iterable[bytes]) -> None:
    """Check the record body, given as consecutive blocks of whole records.

    Each block becomes four lists of Python ints, one per column, so the
    comparisons below run in C over existing objects.  Every sortedness
    break is reported before any Hasse violation, each at its first index,
    as a check of the whole body at once would report them.
    """
    prev = ()  # the last key of the previous block; () sorts before every key
    start = 0  # index of the block's first record
    hasse = None  # the message of the first Hasse violation
    for block in blocks:
        col = array("q")
        col.frombytes(block)
        if sys.byteorder == "big":
            col.byteswap()
        view = memoryview(col)
        r, s, p, a = (view[k::4].tolist() for k in range(4))
        j = _first_false(map(operator.lt, chain((prev,), zip(r, s, p)), zip(r, s, p)))
        if j is not None:
            raise CorruptCacheError(f"corrupt cache {path}: records not strictly sorted at index {start + j}")
        if hasse is None:
            # exact integers: a_p^2 > 4p must not wrap as it would in int64
            j = _first_false(map(operator.le, map(operator.mul, a, a), map(operator.mul, p, repeat(4))))
            if j is not None:
                hasse = (
                    f"corrupt cache {path}: Hasse bound violated at index {start + j}: "
                    f"(r={r[j]}, s={s[j]}, p={p[j]}, ap={a[j]})"
                )
        prev = (r[-1], s[-1], p[-1])
        start += len(r)
    if hasse is not None:
        raise CorruptCacheError(hasse)


def cache_check(path: str | Path) -> int:
    """Fully validate a cache file and return its record count.

    The file is read one block at a time, so memory stays bounded however
    large the file is, and numpy is never imported.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        count = _check_header(path, fh.read(_HEADER.size), os.fstat(fh.fileno()).st_size)
        _check_records(path, iter(partial(fh.read, _BLOCK * _RECORD), b""))
    return count


def cache_load(path: str | Path) -> ApCache:
    """Read and fully validate a cache file."""
    path = Path(path)
    raw = path.read_bytes()
    count = _check_header(path, raw[: _HEADER.size], len(raw))
    body = memoryview(raw)[_HEADER.size :]
    step = _BLOCK * _RECORD
    _check_records(path, (body[k : k + step] for k in range(0, len(body), step)))
    import numpy as np

    rec = np.frombuffer(raw, dtype="<i8", offset=_HEADER.size).astype(np.int64).reshape(count, 4)
    return ApCache(records=rec)
