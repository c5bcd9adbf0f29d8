"""The identity suites of `avgrank verify`.

Each suite re-checks one identity the engine relies on against an
independent route and returns True when it holds.  SUITES lists them in
the order the CLI runs and reports them.  The CLI imports this module
only when `verify` runs, so no other subcommand loads or compiles it.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from . import cache as cache_mod
from . import oracles, twists, weights
from .arith import ramanujan_sum, sieve_primes
from .curves import sigma_p, sigma_p_batch, sigma_p_charsum

__all__ = ["SUITES"]


def _suite_traces() -> bool:
    """The two scalar oracles and the batch engine agree on a 9 x 9 rectangle."""
    rv = np.arange(-4, 5)
    for p in sieve_primes(50, 5):
        batch = sigma_p_batch(rv[:, None], rv, p)
        for r in range(-4, 5):
            for s in range(-4, 5):
                a = sigma_p(r, s, p)
                if a != sigma_p_charsum(r, s, p) or a * a > 4 * p or batch[r + 4, s + 4] != a:
                    return False
    return True


def _suite_ramanujan() -> bool:
    for b in range(1, 40):
        for a in range(-10, 11):
            if oracles.ramanujan_exponential_oracle(a, b) != ramanujan_sum(a, b):
                return False
    return True


def _suite_gcd_sum() -> bool:
    if oracles.gcd_sum_S(1, 1).total != 3 or oracles.gcd_sum_S(2, 2).total != 29:
        return False
    a = oracles.gcd_sum_S(7, 9, order="uvw").total
    b = oracles.gcd_sum_S(7, 9, order="vwu").total
    return a == b


def _suite_floor_inequality() -> bool:
    return all(
        oracles.floor_inequality(e, f) for e in range(0, 80) for f in range(0, e + 1)
    )


def _suite_fejer() -> bool:
    tw = weights.triangular_weight()
    for t in (0.0, 0.3, 1.2, -2.7):
        if abs(weights.fourier_numeric(tw, t).real - weights.h_hat(t)) > 1e-8:
            return False
    ts = np.linspace(-30, 30, 2001)
    return bool((weights.h_hat(ts) >= 0).all()) and weights.h_hat(0.0) == 1.0


def _suite_kernel() -> bool:
    for X in (10.0, 100.0):
        plateau = 1.0 / math.log(X) ** 2
        for t in (0.0, 0.5 * (1 - 1 / X), 1 - 1 / X):
            if weights.kernel_k(t, X) != plateau:
                return False
    return True


def _suite_sieve_indicator() -> bool:
    T, N = 1e10, 1
    cut = math.log(math.log(T))
    ps = sieve_primes(int(cut), 3)
    for n in range(1, 600, 2):
        direct = 0 if any(n % (p * p) == 0 for p in ps) else 1
        if twists.sieve_indicator_X(n, T, N) != direct:
            return False
    return True


def _suite_poisson() -> bool:
    w = weights.bump(1.0, 2.0)
    try:
        twists.poisson_twist_check(w, 1, 5, 200.0)
        twists.poisson_twist_check(w, 8, 5, 200.0)
    except twists.IdentityViolatedError:
        return False
    return True


def _suite_cache() -> bool:
    with tempfile.TemporaryDirectory() as td:
        tmpdir = Path(td)
        c = cache_mod.cache_build(8, 20)
        path = tmpdir / "verify.apcache"
        cache_mod.cache_save(c, path)
        loaded = cache_mod.cache_load(path)
        if len(loaded) != len(c) or not (loaded.records == c.records).all():
            return False
        # fault injection: a corrupted a_p must be rejected by the Hasse check
        raw = bytearray(path.read_bytes())
        raw[-8:] = (10**6).to_bytes(8, "little", signed=True)
        bad = tmpdir / "corrupt.apcache"
        bad.write_bytes(bytes(raw))
        try:
            cache_mod.cache_load(bad)
        except cache_mod.CorruptCacheError:
            return True
        return False


SUITES = (
    ("traces", _suite_traces),
    ("ramanujan", _suite_ramanujan),
    ("gcd-sum", _suite_gcd_sum),
    ("floor-inequality", _suite_floor_inequality),
    ("fejer", _suite_fejer),
    ("kernel", _suite_kernel),
    ("sieve-indicator", _suite_sieve_indicator),
    ("poisson", _suite_poisson),
    ("cache", _suite_cache),
)
